"""Scenario files, seeded runs, calibration to rate/error targets, and sweeps.

Scenario files are YAML: nested sections of key-value pairs.  The schema
table (``_SCENARIO`` and the section tables it names, one row
``key: (parser, default)`` per field) is the one place a field is named,
parsed and defaulted; one walker applies it.  Loading is fail-closed --
unknown keys are rejected with their full dotted path, numbers must be
finite, every default is filled in explicitly, and the resulting
*effective* parameter set is hashed into the scenario digest, so any change
to any effective parameter changes the digest.

Seed policy: one 64-bit master seed drives a session; the engine derives
named Philox substreams per purpose and pulse batch (see ``session``), so
identical scenario + seed reproduce results bit for bit, and sweeps reuse
the same master seed at every grid point (common random numbers).
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence, TextIO

import numpy as np
import yaml

from . import jones
from .bb84 import PHASE_CODING, EveConfig, EveStrategy, SessionStats, Transcript
from .jones import JonesOperator, JonesState
from .loopmodel import LoopConfig, fringe_coefficients, loop_fold, standard_loop
from .loopnet import DisturbanceKind, Entity, RingConfig, noise_taps, select_partner
from .quantumchannel import ClickOutcome, DetectorParams, DoubleClickPolicy, SourceParams
from .quantumchannel import ExpectedSession, expected_session
from .session import SessionParams, run_session, tap_quadrature


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate."""


CSV_SCHEMA_VERSION = "v1"

_FLOAT_FMT = ".9g"


def _fmt(x: Any) -> str:
    if isinstance(x, float):
        return format(x, _FLOAT_FMT)
    return str(x)


# --------------------------------------------------------------------------
# scenario parsing
# --------------------------------------------------------------------------

# A row parser takes a raw value and its dotted path and returns the
# effective value, or raises ScenarioError naming that path.
_Parser = Callable[[Any, str], Any]
_OMIT = object()  # default of an optional section: absent stays absent


def _expect_mapping(node: Any, path: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ScenarioError(f"{path}: expected a mapping, got {type(node).__name__}")
    return node


def _section(table: dict[str, tuple[_Parser, Any]]) -> _Parser:
    """Parser of a mapping whose keys are the rows ``key: (parser, default)``.

    Unknown keys are rejected; an absent key takes its row's default (a
    callable default is called with the fields parsed before it), and every
    value goes through its row's parser.  Returns the effective mapping in
    table order.  The top level has path "" and is reported as "scenario".
    """
    allowed = ", ".join(table)

    def parse(v: Any, path: str) -> dict:
        where = path or "scenario"
        node = _expect_mapping(v, where)
        if not node.keys() <= table.keys():
            unknown = sorted(node.keys() - table.keys())
            raise ScenarioError(
                f"{where}: unknown key(s) {', '.join(map(repr, unknown))}; allowed: {allowed}"
            )
        prefix = f"{path}." if path else ""
        out: dict = {}
        for key, (parser, default) in table.items():
            if key in node:
                value = node[key]
            elif default is _OMIT:
                continue
            else:
                value = default(out) if callable(default) else default
            out[key] = parser(value, prefix + key)
        return out

    return parse


def _number(v: Any, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioError(f"{path}: expected a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ScenarioError(f"{path}: expected a finite number, got {x!r}")
    return x


def _integer(v: Any, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioError(f"{path}: expected an integer, got {v!r}")
    return int(v)


def _natural(v: Any, path: str) -> int:
    n = _integer(v, path)
    if n < 0:
        raise ScenarioError(f"{path}: expected a non-negative integer, got {n}")
    return n


def _seed(v: Any, path: str) -> int:
    """The 64-bit master seed, reported as ``scenario.seed``."""
    seed = _integer(v, "scenario.seed")
    if not 0 <= seed < 2**64:
        raise ScenarioError(f"scenario.seed must fit in 64 bits, got {seed}")
    return seed


def _choice(options: Iterable[str]) -> _Parser:
    options = tuple(options)

    def parse(v: Any, path: str) -> str:
        if v is False:  # YAML 1.1 parses a bare `off` as boolean false
            v = "off"
        if v not in options:
            raise ScenarioError(f"{path}: expected one of {options}, got {v!r}")
        return v

    return parse


def _name(v: Any, path: str) -> str:
    if not isinstance(v, str) or not v:
        raise ScenarioError(f"{path}: expected a non-empty string")
    return v


def _list_of(item: _Parser, expected: str, min_len: int = 0) -> _Parser:
    def parse(v: Any, path: str) -> list:
        if not isinstance(v, list) or len(v) < min_len:
            raise ScenarioError(f"{path}: expected {expected}")
        return [item(x, f"{path}[{i}]") for i, x in enumerate(v)]

    return parse


def _source_pol(v: Any, path: str) -> list:
    """A normalized ``[[re_x, im_x], [re_y, im_y]]``; null is horizontal."""
    if v is None:
        v = [[1.0, 0.0], [0.0, 0.0]]
    if not isinstance(v, list) or len(v) != 2 or any(
        not isinstance(c, list) or len(c) != 2 for c in v
    ):
        raise ScenarioError(f"{path}: expected [[re_x, im_x], [re_y, im_y]]")
    try:
        pol = [[float(re), float(im)] for re, im in v]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{path}: entries must be numbers ({exc})") from None
    state = JonesState(*(complex(*c) for c in pol))
    if not state.is_normalized(tol=1e-9):
        raise ScenarioError(f"{path}: polarization must be normalized, |s|^2 = {state.norm_sq():g}")
    return pol


# Jones spec kinds: kind -> (operator builder, fields).
_JONES: dict[str, tuple[Callable[..., JonesOperator], dict]] = {
    "identity": (lambda: jones.IDENTITY, {}),
    "rotation": (jones.rotator, {"angle": (_number, 0.0)}),
    "retarder": (jones.retarder, {"delta": (_number, 0.0), "theta": (_number, 0.0)}),
    "random_unitary": (
        lambda seed: jones.random_unitary(np.random.default_rng(seed)),
        {"seed": (_natural, 0)},
    ),
}
_JONES_KIND = (_choice(_JONES), "identity")  # every kind's "kind" row, parsed first
_JONES_SPECS = {kind: _section({"kind": _JONES_KIND, **rows}) for kind, (_, rows) in _JONES.items()}


def _jones_spec(v: Any, path: str) -> dict:
    parse_kind, default = _JONES_KIND
    kind = parse_kind(_expect_mapping(v, path).get("kind", default), f"{path}.kind")
    return _JONES_SPECS[kind](v, path)


def _operator(spec: dict) -> JonesOperator:
    build, _ = _JONES[spec["kind"]]
    return build(**{k: v for k, v in spec.items() if k != "kind"})


# The scenario schema, key -> (parser, default), is the one place a field is
# named, parsed and defaulted.  Row order is the order of "allowed:" lists.
_SOURCE = {"mu": (_number, 0.1), "rep_rate": (_number, 100e3), "wavelength": (_number, 830e-9)}
_DETECTORS = {"efficiency": (_number, 1.0), "dark_prob": (_number, 0.0)}
_PROTOCOL = {
    "pulses": (_integer, 100_000),
    "double_click_policy": (_choice(p.value for p in DoubleClickPolicy), "discard"),
    "disclosed_fraction": (_number, 1.0),
}
_EVE = {"strategy": (_choice(s.value for s in EveStrategy), "off"), "fraction": (_number, 0.0)}
_LOOP = {
    "upper_length": (_number, 200.0),
    "lower_length": (_number, 200.0),
    "delay_length": (_number, 800.0),
    "loss_db_per_km": (_number, 0.0),
    "coupler_ratio": (_number, 0.5),
    "attenuator_transmittance": (_number, 1.0),
    "source_pol": (_source_pol, None),
    "upper_jones": (_jones_spec, None),
    "lower_jones": (_jones_spec, None),
    "delay_jones": (_jones_spec, None),
}
_ENTITY = {
    "id": (_name, None),
    "attenuator_transmittance": (_number, 1.0),
    "insertion_transmittance": (_number, 1.0),
    "disturbance_sigma": (_number, 0.0),
    "disturbance_kind": (_choice(k.value for k in DisturbanceKind), "gaussian"),
}
_RING = {
    # any value; build_scenario checks it against the entity ids
    "partner": (lambda v, path: v, None),
    "entities": (_list_of(_section(_ENTITY), "a non-empty list", min_len=1), None),
    "link_lengths": (  # default: one 100 m fiber per gap between hub and entities
        _list_of(_number, "a list of lengths in meters"),
        lambda ring: [100.0] * (len(ring["entities"]) + 1),
    ),
    "delay_length": (_number, 800.0),
    "loss_db_per_km": (_number, 0.0),
    "coupler_ratio": (_number, 0.5),
}
_SCENARIO = _section(
    {
        "seed": (_seed, 1),
        "source": (_section(_SOURCE), None),
        "detectors": (_section(_DETECTORS), None),
        "protocol": (_section(_PROTOCOL), None),
        "loop": (_section(_LOOP), _OMIT),
        "eve": (_section(_EVE), None),
        "ring": (_section(_RING), _OMIT),
    }
)


@dataclass(frozen=True, eq=False)
class Scenario:
    """A fully validated, fully defaulted simulation setup."""

    effective: dict
    digest: str
    seed: int
    source: SourceParams
    detectors: DetectorParams
    eve: EveConfig
    pulses: int
    disclosed_fraction: float
    loop: LoopConfig | None
    ring: RingConfig | None
    partner: str | None

    def session_params(self, seed: int | None = None, pulses: int | None = None) -> SessionParams:
        return SessionParams(
            pulses=self.pulses if pulses is None else pulses,
            seed=self.seed if seed is None else seed,
            source=self.source,
            detectors=self.detectors,
            eve=self.eve,
            disclosed_fraction=self.disclosed_fraction,
        )

    def resolve_partner(self, partner: str | None = None) -> str | None:
        """The ring entity a session keys with: ``partner``, else ``ring.partner``.

        A two-party loop has no partner, and giving it one is an error.
        """
        if self.ring is None:
            if partner is not None:
                raise ScenarioError(
                    f"partner {partner!r} given, but a loop scenario has no partner "
                    "(--partner applies to ring scenarios)"
                )
            return None
        chosen = self.partner if partner is None else partner
        if chosen is None:
            raise ScenarioError("ring scenario needs a partner (set ring.partner or --partner)")
        return chosen

    def effective_loop(self, partner: str | None = None) -> LoopConfig:
        """The two-party loop this scenario runs over (flattening a ring if needed)."""
        chosen = self.resolve_partner(partner)
        return self.loop if chosen is None else select_partner(self.ring, chosen)


def _construct(eff: dict) -> tuple[SessionParams, LoopConfig | None, RingConfig | None]:
    """Objects of an effective scenario; raises ValueError.

    Each object checks itself when it is built, ``EveConfig`` refusing an
    attacked fraction without an eavesdropper.  A ring is also flattened
    once for its first entity, because only the flattened loop checks the
    ring's delay, loss and coupler.  After its own range check, a sigma on a
    uniform module, which the model never reads, is refused.
    """
    protocol, eve = eff["protocol"], eff["eve"]
    params = SessionParams(
        pulses=protocol["pulses"],
        seed=eff["seed"],
        source=SourceParams(**eff["source"]),
        detectors=DetectorParams(
            **eff["detectors"],
            double_click_policy=DoubleClickPolicy(protocol["double_click_policy"]),
        ),
        eve=EveConfig(EveStrategy(eve["strategy"]), eve["fraction"]),
        disclosed_fraction=protocol["disclosed_fraction"],
    )
    if "loop" in eff:
        loop = eff["loop"]
        # the geometry (every float field) goes in by keyword
        loop_cfg = standard_loop(
            **{k: v for k, v in loop.items() if isinstance(v, float)},
            source_pol=JonesState(*(complex(*c) for c in loop["source_pol"])),
            **{k: _operator(v) for k, v in loop.items() if isinstance(v, dict)},
        )
        return params, loop_cfg, None
    ring = {k: v for k, v in eff["ring"].items() if k != "partner"}
    entities = tuple(
        Entity(**{**e, "disturbance_kind": DisturbanceKind(e["disturbance_kind"])})
        for e in ring["entities"]
    )
    for i, entity in enumerate(entities):
        if entity.disturbance_kind is DisturbanceKind.UNIFORM and entity.disturbance_sigma > 0.0:
            raise ValueError(
                f"ring.entities[{i}].disturbance_sigma {entity.disturbance_sigma:g} has no "
                "effect: a uniform module draws its phase over the whole circle"
            )
    ring_cfg = RingConfig(
        **{**ring, "entities": entities, "link_lengths": tuple(ring["link_lengths"])}
    )
    select_partner(ring_cfg, entities[0].id)
    return params, None, ring_cfg


def build_scenario(raw: Any) -> Scenario:
    """Validate a parsed scenario mapping, fill defaults, and construct everything."""
    raw = _expect_mapping(raw, "scenario")
    if "loop" in raw and "ring" in raw:
        raise ScenarioError("scenario: give either a loop or a ring section, not both")
    topology = "ring" if "ring" in raw else "loop"
    effective = _SCENARIO({topology: None, **raw}, "")
    effective[topology] = effective.pop(topology)  # last, so sweep axes list it last
    try:
        params, loop_cfg, ring_cfg = _construct(effective)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    partner = effective.get("ring", {}).get("partner")
    if partner is not None and partner not in ring_cfg.entity_ids():
        raise ScenarioError(
            f"ring.partner: {partner!r} not in ring ({', '.join(ring_cfg.entity_ids())})"
        )

    digest = hashlib.sha256(
        json.dumps(effective, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]

    return Scenario(
        effective=effective,
        digest=digest,
        seed=params.seed,
        source=params.source,
        detectors=params.detectors,
        eve=params.eve,
        pulses=params.pulses,
        disclosed_fraction=params.disclosed_fraction,
        loop=loop_cfg,
        ring=ring_cfg,
        partner=partner,
    )


class _UniqueKeyLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that refuses a repeated mapping key instead of
    keeping its last value."""

    def construct_mapping(self, node: yaml.MappingNode, deep: bool = False) -> dict:
        seen: list = []  # a list, so an unhashable key reaches the base class's error
        for key_node, _ in node.value:
            if key_node.tag != "tag:yaml.org,2002:merge":  # explicit keys override merged ones
                key = self.construct_object(key_node, deep=deep)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"duplicate key {key!r}", key_node.start_mark
                    )
                seen.append(key)
        return super().construct_mapping(node, deep=deep)


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario file; errors carry line/field diagnostics."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = yaml.load(f, Loader=_UniqueKeyLoader)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ScenarioError(f"cannot parse scenario {path}: {exc}") from None
    return build_scenario(raw)


def dump_scenario(effective: dict) -> str:
    """Serialize an effective parameter set back to scenario YAML."""
    doc = copy.deepcopy(effective)
    if "ring" in doc and doc["ring"].get("partner") is None:
        del doc["ring"]["partner"]
    return yaml.safe_dump(doc, sort_keys=True, default_flow_style=None)


# --------------------------------------------------------------------------
# runs and reports
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RunReport:
    """Result of one run or sweep: digest-stamped stats plus optional sweep rows."""

    digest: str
    seed: int
    pulses: int
    stats: SessionStats | None
    rows: tuple[dict, ...] = ()
    wall_clock: float = 0.0


def run(
    scenario: Scenario,
    *,
    seed: int | None = None,
    pulses: int | None = None,
    partner: str | None = None,
    collect_records: bool = False,
) -> tuple[RunReport, Transcript | None]:
    """Execute the scenario end to end (two-party loop, or ring with a partner)."""
    t0 = time.perf_counter()
    params = scenario.session_params(seed=seed, pulses=pulses)
    chosen = scenario.resolve_partner(partner)
    noise = () if chosen is None else noise_taps(scenario.ring, chosen)
    stats, transcript = run_session(
        scenario.effective_loop(chosen), params, noise, collect_records=collect_records
    )
    report = RunReport(
        digest=scenario.digest,
        seed=params.seed,
        pulses=params.pulses,
        stats=stats,
        wall_clock=time.perf_counter() - t0,
    )
    return report, transcript


def expected_for_scenario(scenario: Scenario, partner: str | None = None) -> ExpectedSession:
    """Closed-form expectation of the session ``run`` samples: the loop,
    the pulse period, Eve's fraction and the partner's live noise taps."""
    chosen = scenario.resolve_partner(partner)
    loop = scenario.effective_loop(chosen)
    taps = () if chosen is None else noise_taps(scenario.ring, chosen)
    return expected_session(
        fringe_coefficients(loop),
        PHASE_CODING.through(loop, 1.0 / scenario.source.rep_rate),
        scenario.source,
        scenario.detectors,
        scenario.eve.fraction,
        tap_quadrature(taps),
    )


def oracle_z_scores(
    stats: SessionStats, expected: ExpectedSession
) -> tuple[float | None, float | None]:
    """Binomial z-scores of a session's sifted bits over its pulses and of
    its errors over its disclosed bits; None where a variance is 0 or nan."""

    def z(k: int, n: int, p: float) -> float | None:
        variance = n * p * (1.0 - p)
        return (k - n * p) / math.sqrt(variance) if variance > 0.0 else None

    return (
        z(stats.sifted_bits, stats.pulses_sent, expected.sifted_prob),
        z(stats.errors, stats.disclosed_bits, expected.qber),
    )


# --------------------------------------------------------------------------
# sweeps
# --------------------------------------------------------------------------


def numeric_axes(effective: dict, prefix: str = "") -> list[str]:
    """All dotted paths of numeric leaves in an effective scenario mapping."""
    paths: list[str] = []
    if isinstance(effective, dict):
        items = effective.items()
    elif isinstance(effective, list):
        items = enumerate(effective)
    else:
        return paths
    for key, value in items:
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            paths.append(path)
        elif isinstance(value, (dict, list)):
            paths.extend(numeric_axes(value, path))
    return paths


def _set_path(node: Any, path: str, value: float) -> None:
    parts = path.split(".")
    for p in parts[:-1]:
        node = node[int(p)] if isinstance(node, list) else node[p]
    leaf = parts[-1]
    key = int(leaf) if isinstance(node, list) else leaf
    old = node[key]
    node[key] = int(round(value)) if isinstance(old, int) and not isinstance(old, bool) else float(value)


def sweep(
    scenario: Scenario,
    axis: str,
    grid: Sequence[float],
    *,
    seed: int | None = None,
    pulses: int | None = None,
) -> RunReport:
    """One run per grid value of a numeric scenario parameter.

    Every grid point reuses the same master seed (common random numbers), so
    curves vary only through the swept parameter; the seed itself is
    therefore no axis.
    """
    if axis == "seed":
        raise ScenarioError(
            "sweep axis 'seed' would give every grid point its own seed; a sweep shares "
            "one master seed across its points (set it with --seed)"
        )
    available = [a for a in numeric_axes(scenario.effective) if a != "seed"]
    if axis not in available:
        raise ScenarioError(
            f"unknown sweep axis {axis!r}; sweepable parameters: {', '.join(available)}"
        )
    if axis == "protocol.pulses" and pulses is not None:
        raise ScenarioError(
            f"sweep axis 'protocol.pulses' is overridden by --pulses {pulses} at every grid "
            "point; drop --pulses to sweep the pulse count"
        )
    if len(grid) == 0:
        raise ScenarioError("sweep grid is empty")
    t0 = time.perf_counter()
    rows = []
    for value in grid:
        effective = copy.deepcopy(scenario.effective)
        _set_path(effective, axis, float(value))
        try:
            point = build_scenario(effective)
        except ScenarioError as exc:
            raise ScenarioError(f"sweep {axis}={value:g}: {exc}") from None
        report, _ = run(point, seed=seed, pulses=pulses)
        rows.append(
            {"axis": axis, "value": float(value), **_stats_row(report), "digest": point.digest}
        )
    return RunReport(
        digest=scenario.digest,
        seed=scenario.seed if seed is None else seed,
        pulses=scenario.pulses if pulses is None else pulses,
        stats=None,
        rows=tuple(rows),
        wall_clock=time.perf_counter() - t0,
    )


def fringe(scenario: Scenario, points: int = 360, partner: str | None = None) -> tuple[dict, ...]:
    """Detection probabilities on a phase-difference grid (protocol disabled)."""
    if points < 2:
        raise ScenarioError("fringe needs at least 2 grid points")
    fc = fringe_coefficients(scenario.effective_loop(partner))
    deltas = np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)
    p1, p2 = fc.probs(deltas)
    return tuple(
        {"delta_phi": float(d), "p1": float(a), "p2": float(b)}
        for d, a, b in zip(deltas, p1, p2)
    )


# --------------------------------------------------------------------------
# calibration
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted scenario plus the solved physical parameters."""

    effective: dict
    transmittance: float
    visibility: float
    rotation_angle: float
    expected_raw_rate: float
    expected_qber: float
    expected_sifted_prob: float


_CAL_REL_TOL = 1e-6


def _bisect(f, lo: float, hi: float, target: float, increasing: bool, iters: int = 80) -> float:
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            # the bracket is two adjacent floats: every further step returns mid
            return mid
        val = f(mid)
        if (val < target) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def calibrate(scenario: Scenario, target_raw_hz: float, target_qber: float) -> CalibrationResult:
    """Fit the loop's attenuator and rotation so the closed-form oracle hits the targets.

    Solves the in-loop attenuator transmittance against the raw (sifted) key
    rate and a polarization-rotation angle against the error rate, holding
    the scenario's detector efficiency and dark probability fixed.  Both
    one-dimensional solves are bisections on the exact expectation; the pair
    is alternated until residuals are below 1e-6 relative, or fails after
    12 rounds.  The rotation is circular birefringence, which the
    counter-propagating loop does not cancel; the reported visibility is
    the fitted loop's, cos(2 * angle) only on a polarization-neutral base.
    Each evaluation applies the two settings to a ``loopmodel.loop_fold``
    and a ``PhaseTable.through`` made once; only the fitted scenario is
    built, and checked, by ``build_scenario``.  An eavesdropper on the
    base stays in every evaluation and raises the QBER floor, and a base
    whose pulses meet at Alice's modulator fails as "not achievable": its
    QBER floor is 1/2.
    """
    if scenario.ring is not None:
        raise ScenarioError("calibrate expects a two-party loop scenario")
    if target_raw_hz <= 0.0:
        raise ScenarioError(f"target raw rate must be > 0, got {target_raw_hz:g}")
    if not (0.0 <= target_qber < 0.5):
        raise ScenarioError(f"target QBER must be in [0, 0.5), got {target_qber:g}")

    fold = loop_fold(scenario.loop)
    table = PHASE_CODING.through(scenario.loop, 1.0 / scenario.source.rep_rate)

    def expect(transmittance: float, angle: float) -> ExpectedSession:
        fc = fold.at(transmittance, jones.rotation(angle))
        return expected_session(
            fc, table, scenario.source, scenario.detectors, scenario.eve.fraction
        )

    angle_sol = 0.0
    t_floor = 1e-9

    def solve_transmittance() -> float:
        return _bisect(
            lambda t: expect(t, angle_sol).raw_rate, t_floor, 1.0, target_raw_hz, increasing=True
        )

    r_max, r_min = expect(1.0, angle_sol).raw_rate, expect(t_floor, angle_sol).raw_rate
    if not (r_min <= target_raw_hz <= r_max):
        raise ScenarioError(
            f"target raw rate {target_raw_hz:g} Hz is not achievable; "
            f"this scenario reaches [{r_min:.6g}, {r_max:.6g}] Hz"
        )
    # dark counts raise the QBER floor as the attenuator closes, so the range
    # is checked at the transmittance that the rate target forces
    t_sol = solve_transmittance()
    q_floor = expect(t_sol, 0.0).qber
    q_ceil = expect(t_sol, math.pi / 4.0).qber  # visibility 0
    if not (q_floor - 1e-12 <= target_qber <= q_ceil + 1e-12):
        raise ScenarioError(
            f"target QBER {target_qber:g} is not achievable at the raw rate "
            f"{target_raw_hz:g} Hz; this scenario reaches [{q_floor:.6g}, {q_ceil:.6g}]"
        )

    for _ in range(12):
        angle_sol = _bisect(
            lambda a: expect(t_sol, a).qber, 0.0, math.pi / 4.0, target_qber, increasing=True
        )
        got = expect(t_sol, angle_sol)
        rate_ok = abs(got.raw_rate - target_raw_hz) <= _CAL_REL_TOL * target_raw_hz
        qber_ok = abs(got.qber - target_qber) <= _CAL_REL_TOL * max(target_qber, 1e-12)
        if rate_ok and qber_ok:
            break
        t_sol = solve_transmittance()
    else:
        raise ScenarioError(
            f"calibrate did not converge: it reaches raw rate {got.raw_rate:.6g} Hz "
            f"and QBER {got.qber:.6g} for targets {target_raw_hz:g} Hz and {target_qber:g}"
        )

    fitted = copy.deepcopy(scenario.effective)
    fitted["loop"]["attenuator_transmittance"] = float(t_sol)
    fitted["loop"]["delay_jones"] = {"kind": "rotation", "angle": float(angle_sol)}
    fitted_scenario = build_scenario(fitted)
    got = expected_for_scenario(fitted_scenario)
    return CalibrationResult(
        effective=fitted_scenario.effective,
        transmittance=float(t_sol),
        visibility=fold.at(t_sol, jones.rotation(angle_sol)).visibility,
        rotation_angle=float(angle_sol),
        expected_raw_rate=got.raw_rate,
        expected_qber=got.qber,
        expected_sifted_prob=got.sifted_prob,
    )


# --------------------------------------------------------------------------
# CSV emission (schema-versioned; identical input -> identical bytes)
# --------------------------------------------------------------------------

def _table(kind: str, fields: Sequence[str], rows: Iterable[dict]) -> str:
    """Schema line, header, and one line per row: its ``fields`` in order."""
    lines = [f"# schema loopqkd.{kind}.{CSV_SCHEMA_VERSION}", ",".join(fields)]
    lines += (",".join(_fmt(row[f]) for f in fields) for row in rows)
    return "\n".join(lines) + "\n"


def _stats_row(report: RunReport) -> dict:
    """The session columns of a run's CSV row, by field name."""
    s = report.stats
    return {
        "pulses": report.pulses,
        "raw_clicks": s.raw_clicks,
        "sifted_bits": s.sifted_bits,
        "errors": s.errors,
        "disclosed_bits": s.disclosed_bits,
        "raw_rate_hz": s.raw_rate,
        "qber": s.qber,
        "qber_low": s.qber_low,
        "qber_high": s.qber_high,
    }


_RUN_FIELDS = (
    "digest",
    "seed",
    "pulses",
    "raw_clicks",
    "sifted_bits",
    "errors",
    "disclosed_bits",
    "raw_rate_hz",
    "qber",
    "qber_low",
    "qber_high",
)


def run_csv(report: RunReport) -> str:
    return _table(
        "run", _RUN_FIELDS, [{"digest": report.digest, "seed": report.seed, **_stats_row(report)}]
    )


_SWEEP_FIELDS = (
    "axis",
    "value",
    "pulses",
    "sifted_bits",
    "raw_rate_hz",
    "qber",
    "qber_low",
    "qber_high",
    "digest",
)


def sweep_csv(report: RunReport) -> str:
    return _table("sweep", _SWEEP_FIELDS, report.rows)


def fringe_csv(rows: Sequence[dict]) -> str:
    return _table("fringe", ("delta_phi", "p1", "p2"), rows)


_TRANSCRIPT_FIELDS = (
    "index",
    "alice_bit",
    "alice_basis",
    "bob_basis",
    "phi_a",
    "phi_b",
    "outcome",
    "sifted",
    "decoded_bit",
)


_OUTCOME_NAMES = tuple(o.value for o in ClickOutcome)  # by outcome code


def _column(values: np.ndarray, text: Callable[[Any], str] = _fmt) -> list[str]:
    """``text`` of every element, formatting each distinct value once."""
    distinct, inverse = np.unique(values, return_inverse=True)
    labels = np.array([text(v) for v in distinct.tolist()], dtype=object)
    return labels[inverse].tolist()


# Rows formatted and written per chunk; bounds the strings held at once.
TRANSCRIPT_CHUNK_ROWS = 1 << 16


def transcript_csv(transcript: Transcript, out: TextIO) -> None:
    """Write the transcript CSV to the text stream ``out``, one chunk of rows at a time."""
    out.write(f"# schema loopqkd.transcript.{CSV_SCHEMA_VERSION}\n{','.join(_TRANSCRIPT_FIELDS)}\n")
    t = transcript
    for start in range(0, len(t), TRANSCRIPT_CHUNK_ROWS):
        rows = slice(start, start + TRANSCRIPT_CHUNK_ROWS)
        a_bits, a_bases, b_bases = (c[rows] for c in (t.alice_bits, t.alice_bases, t.bob_bases))
        sifted = t.sifted[rows]
        columns = (
            map(str, range(len(t))[rows]),
            _column(a_bits),
            _column(a_bases),
            _column(b_bases),
            _column(t.table.alice_phases[a_bases, a_bits]),
            _column(t.table.bob_phases[b_bases]),
            _column(t.outcome[rows], lambda c: _OUTCOME_NAMES[c]),
            _column(sifted, lambda s: "1" if s else "0"),
            _column(np.where(sifted, t.decoded[rows], -1), lambda b: "" if b < 0 else str(b)),
        )
        out.write("\n".join(map(",".join, zip(*columns))) + "\n")

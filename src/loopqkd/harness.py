"""Scenario files, seeded runs, calibration to rate/error targets, and sweeps.

Scenario files are YAML: nested sections of key-value pairs.  Loading is
fail-closed -- unknown keys are rejected with their full dotted path, every
default is filled in explicitly, and the resulting *effective* parameter
set is hashed into the scenario digest, so any change to any effective
parameter changes the digest.

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
from typing import Any, Callable, Sequence

import numpy as np
import yaml

from . import jones
from .bb84 import PHASE_CODING, EveConfig, EveStrategy, SessionStats, Transcript
from .jones import JonesOperator, JonesState
from .loopmodel import LoopConfig, fringe_coefficients, standard_loop
from .loopnet import DisturbanceKind, Entity, RingConfig, run_network_session, select_partner
from .quantumchannel import ClickOutcome, DetectorParams, DoubleClickPolicy, SourceParams
from .session import SessionParams, run_session


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

_JONES_KINDS = ("identity", "rotation", "retarder", "random_unitary")


def _expect_mapping(node: Any, path: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ScenarioError(f"{path}: expected a mapping, got {type(node).__name__}")
    return node


def _check_keys(node: dict, allowed: Sequence[str], path: str) -> None:
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise ScenarioError(
            f"{path}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(allowed)}"
        )


def _number(node: dict, key: str, default: float, path: str) -> float:
    v = node.get(key, default)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioError(f"{path}.{key}: expected a number, got {v!r}")
    return float(v)


def _integer(node: dict, key: str, default: int, path: str) -> int:
    v = node.get(key, default)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioError(f"{path}.{key}: expected an integer, got {v!r}")
    return int(v)


def _choice(node: dict, key: str, default: str, options: Sequence[str], path: str) -> str:
    v = node.get(key, default)
    if v is False:  # YAML 1.1 parses a bare `off` as boolean false
        v = "off"
    if v not in options:
        raise ScenarioError(f"{path}.{key}: expected one of {options}, got {v!r}")
    return v


def _parse_jones_spec(node: Any, path: str) -> tuple[JonesOperator, dict]:
    node = _expect_mapping(node, path)
    kind = _choice(node, "kind", "identity", _JONES_KINDS, path)
    if kind == "identity":
        _check_keys(node, ("kind",), path)
        return jones.IDENTITY, {"kind": "identity"}
    if kind == "rotation":
        _check_keys(node, ("kind", "angle"), path)
        angle = _number(node, "angle", 0.0, path)
        return jones.rotator(angle), {"kind": "rotation", "angle": angle}
    if kind == "retarder":
        _check_keys(node, ("kind", "delta", "theta"), path)
        delta = _number(node, "delta", 0.0, path)
        theta = _number(node, "theta", 0.0, path)
        return jones.retarder(delta, theta), {"kind": "retarder", "delta": delta, "theta": theta}
    _check_keys(node, ("kind", "seed"), path)
    seed = _integer(node, "seed", 0, path)
    op = jones.random_unitary(np.random.default_rng(seed))
    return op, {"kind": "random_unitary", "seed": seed}


def _parse_source_pol(node: Any, path: str) -> tuple[JonesState, list]:
    if node is None:
        node = [[1.0, 0.0], [0.0, 0.0]]
    if (
        not isinstance(node, list)
        or len(node) != 2
        or any(not isinstance(c, list) or len(c) != 2 for c in node)
    ):
        raise ScenarioError(f"{path}: expected [[re_x, im_x], [re_y, im_y]]")
    try:
        ex = complex(float(node[0][0]), float(node[0][1]))
        ey = complex(float(node[1][0]), float(node[1][1]))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}: entries must be numbers ({exc})") from None
    state = JonesState(ex, ey)
    if not state.is_normalized(tol=1e-9):
        raise ScenarioError(f"{path}: polarization must be normalized, |s|^2 = {state.norm_sq():g}")
    return state, [[ex.real, ex.imag], [ey.real, ey.imag]]


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

    def effective_loop(self, partner: str | None = None) -> LoopConfig:
        """The two-party loop this scenario runs over (flattening a ring if needed)."""
        if self.loop is not None:
            return self.loop
        partner = partner or self.partner
        if partner is None:
            raise ScenarioError("ring scenario needs a partner (set ring.partner or --partner)")
        return select_partner(self.ring, partner)


def build_scenario(raw: Any) -> Scenario:
    """Validate a parsed scenario mapping, fill defaults, and construct everything."""
    raw = _expect_mapping(raw, "scenario")
    _check_keys(raw, ("seed", "source", "detectors", "protocol", "loop", "eve", "ring"), "scenario")
    if "loop" in raw and "ring" in raw:
        raise ScenarioError("scenario: give either a loop or a ring section, not both")

    seed = _integer(raw, "seed", 1, "scenario")
    if not (0 <= seed < 2**64):
        raise ScenarioError(f"scenario.seed must fit in 64 bits, got {seed}")

    src_node = _expect_mapping(raw.get("source"), "source")
    _check_keys(src_node, ("mu", "rep_rate", "wavelength"), "source")
    source = SourceParams(
        mu=_number(src_node, "mu", 0.1, "source"),
        rep_rate=_number(src_node, "rep_rate", 100e3, "source"),
        wavelength=_number(src_node, "wavelength", 830e-9, "source"),
    )
    try:
        source.validate()
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None

    prot_node = _expect_mapping(raw.get("protocol"), "protocol")
    _check_keys(prot_node, ("pulses", "double_click_policy", "disclosed_fraction"), "protocol")
    pulses = _integer(prot_node, "pulses", 100_000, "protocol")
    if pulses < 1:
        raise ScenarioError(f"protocol.pulses must be >= 1, got {pulses}")
    policy = _choice(
        prot_node, "double_click_policy", "discard", ("discard", "random_assign"), "protocol"
    )
    disclosed = _number(prot_node, "disclosed_fraction", 1.0, "protocol")
    if not (0.0 < disclosed <= 1.0):
        raise ScenarioError(f"protocol.disclosed_fraction must be in (0, 1], got {disclosed}")

    det_node = _expect_mapping(raw.get("detectors"), "detectors")
    _check_keys(det_node, ("efficiency", "dark_prob"), "detectors")
    detectors = DetectorParams(
        efficiency=_number(det_node, "efficiency", 1.0, "detectors"),
        dark_prob=_number(det_node, "dark_prob", 0.0, "detectors"),
        double_click_policy=DoubleClickPolicy(policy),
    )
    try:
        detectors.validate()
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None

    eve_node = _expect_mapping(raw.get("eve"), "eve")
    _check_keys(eve_node, ("strategy", "fraction"), "eve")
    strategy = _choice(eve_node, "strategy", "off", ("off", "intercept_resend"), "eve")
    eve = EveConfig(
        strategy=EveStrategy(strategy), fraction=_number(eve_node, "fraction", 0.0, "eve")
    )
    try:
        eve.validate()
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None

    effective: dict = {
        "seed": seed,
        "source": {"mu": source.mu, "rep_rate": source.rep_rate, "wavelength": source.wavelength},
        "detectors": {"efficiency": detectors.efficiency, "dark_prob": detectors.dark_prob},
        "protocol": {
            "pulses": pulses,
            "double_click_policy": policy,
            "disclosed_fraction": disclosed,
        },
        "eve": {"strategy": strategy, "fraction": eve.fraction},
    }

    loop_cfg: LoopConfig | None = None
    ring_cfg: RingConfig | None = None
    partner: str | None = None

    if "ring" in raw:
        ring_node = _expect_mapping(raw.get("ring"), "ring")
        _check_keys(
            ring_node,
            ("partner", "entities", "link_lengths", "delay_length", "loss_db_per_km", "coupler_ratio"),
            "ring",
        )
        entities_node = ring_node.get("entities")
        if not isinstance(entities_node, list) or not entities_node:
            raise ScenarioError("ring.entities: expected a non-empty list")
        entities = []
        eff_entities = []
        for i, e_node in enumerate(entities_node):
            path = f"ring.entities[{i}]"
            e_node = _expect_mapping(e_node, path)
            _check_keys(
                e_node,
                (
                    "id",
                    "attenuator_transmittance",
                    "insertion_transmittance",
                    "disturbance_sigma",
                    "disturbance_kind",
                ),
                path,
            )
            ent_id = e_node.get("id")
            if not isinstance(ent_id, str) or not ent_id:
                raise ScenarioError(f"{path}.id: expected a non-empty string")
            ent = Entity(
                id=ent_id,
                attenuator_transmittance=_number(e_node, "attenuator_transmittance", 1.0, path),
                insertion_transmittance=_number(e_node, "insertion_transmittance", 1.0, path),
                disturbance_sigma=_number(e_node, "disturbance_sigma", 0.0, path),
                disturbance_kind=DisturbanceKind(
                    _choice(e_node, "disturbance_kind", "gaussian", ("gaussian", "uniform"), path)
                ),
            )
            entities.append(ent)
            eff_entities.append(
                {
                    "id": ent.id,
                    "attenuator_transmittance": ent.attenuator_transmittance,
                    "insertion_transmittance": ent.insertion_transmittance,
                    "disturbance_sigma": ent.disturbance_sigma,
                    "disturbance_kind": ent.disturbance_kind.value,
                }
            )
        links_node = ring_node.get("link_lengths", [100.0] * (len(entities) + 1))
        if not isinstance(links_node, list):
            raise ScenarioError("ring.link_lengths: expected a list of lengths in meters")
        link_lengths = []
        for i, v in enumerate(links_node):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ScenarioError(f"ring.link_lengths[{i}]: expected a number, got {v!r}")
            link_lengths.append(float(v))
        ring_cfg = RingConfig(
            entities=tuple(entities),
            link_lengths=tuple(link_lengths),
            delay_length=_number(ring_node, "delay_length", 800.0, "ring"),
            loss_db_per_km=_number(ring_node, "loss_db_per_km", 0.0, "ring"),
            coupler_ratio=_number(ring_node, "coupler_ratio", 0.5, "ring"),
        )
        try:
            ring_cfg.validate()
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        partner = ring_node.get("partner")
        if partner is not None:
            if partner not in ring_cfg.entity_ids():
                raise ScenarioError(
                    f"ring.partner: {partner!r} not in ring ({', '.join(ring_cfg.entity_ids())})"
                )
        effective["ring"] = {
            "partner": partner,
            "entities": eff_entities,
            "link_lengths": link_lengths,
            "delay_length": ring_cfg.delay_length,
            "loss_db_per_km": ring_cfg.loss_db_per_km,
            "coupler_ratio": ring_cfg.coupler_ratio,
        }
    else:
        loop_node = _expect_mapping(raw.get("loop"), "loop")
        _check_keys(
            loop_node,
            (
                "upper_length",
                "lower_length",
                "delay_length",
                "loss_db_per_km",
                "coupler_ratio",
                "attenuator_transmittance",
                "source_pol",
                "upper_jones",
                "lower_jones",
                "delay_jones",
            ),
            "loop",
        )
        source_pol, eff_pol = _parse_source_pol(loop_node.get("source_pol"), "loop.source_pol")
        upper_j, eff_upper = _parse_jones_spec(loop_node.get("upper_jones"), "loop.upper_jones")
        lower_j, eff_lower = _parse_jones_spec(loop_node.get("lower_jones"), "loop.lower_jones")
        delay_j, eff_delay = _parse_jones_spec(loop_node.get("delay_jones"), "loop.delay_jones")
        geometry = {
            "upper_length": _number(loop_node, "upper_length", 200.0, "loop"),
            "lower_length": _number(loop_node, "lower_length", 200.0, "loop"),
            "delay_length": _number(loop_node, "delay_length", 800.0, "loop"),
            "loss_db_per_km": _number(loop_node, "loss_db_per_km", 0.0, "loop"),
            "coupler_ratio": _number(loop_node, "coupler_ratio", 0.5, "loop"),
            "attenuator_transmittance": _number(loop_node, "attenuator_transmittance", 1.0, "loop"),
        }
        loop_cfg = standard_loop(
            upper_length=geometry["upper_length"],
            lower_length=geometry["lower_length"],
            delay_length=geometry["delay_length"],
            loss_db_per_km=geometry["loss_db_per_km"],
            coupler_ratio=geometry["coupler_ratio"],
            attenuator_transmittance=geometry["attenuator_transmittance"],
            source_pol=source_pol,
            upper_jones=upper_j,
            lower_jones=lower_j,
            delay_jones=delay_j,
        )
        try:
            loop_cfg.validate()
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        effective["loop"] = {
            **geometry,
            "source_pol": eff_pol,
            "upper_jones": eff_upper,
            "lower_jones": eff_lower,
            "delay_jones": eff_delay,
        }

    digest = hashlib.sha256(
        json.dumps(effective, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]

    return Scenario(
        effective=effective,
        digest=digest,
        seed=seed,
        source=source,
        detectors=detectors,
        eve=eve,
        pulses=pulses,
        disclosed_fraction=disclosed,
        loop=loop_cfg,
        ring=ring_cfg,
        partner=partner,
    )


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario file; errors carry line/field diagnostics."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = yaml.safe_load(f)
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
    if scenario.ring is not None:
        chosen = partner or scenario.partner
        if chosen is None:
            raise ScenarioError("ring scenario needs a partner (set ring.partner or --partner)")
        stats, transcript = run_network_session(
            scenario.ring, chosen, params, collect_records=collect_records
        )
    else:
        stats, transcript = run_session(scenario.loop, params, collect_records=collect_records)
    report = RunReport(
        digest=scenario.digest,
        seed=params.seed,
        pulses=params.pulses,
        stats=stats,
        wall_clock=time.perf_counter() - t0,
    )
    return report, transcript


def expected_for_scenario(scenario: Scenario, partner: str | None = None):
    """Closed-form session expectation for this scenario's loop and parameters."""
    from .quantumchannel import expected_session

    return expected_session(
        scenario.effective_loop(partner), PHASE_CODING, scenario.source, scenario.detectors
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
    curves vary only through the swept parameter.
    """
    available = numeric_axes(scenario.effective)
    if axis not in available:
        raise ScenarioError(
            f"unknown sweep axis {axis!r}; sweepable parameters: {', '.join(available)}"
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
        s = report.stats
        rows.append(
            {
                "axis": axis,
                "value": float(value),
                "pulses": report.pulses,
                "sifted_bits": s.sifted_bits,
                "raw_rate_hz": s.raw_rate,
                "qber": s.qber,
                "qber_low": s.qber_low,
                "qber_high": s.qber_high,
                "digest": point.digest,
            }
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
        val = f(mid)
        if (val < target) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def calibrate(
    scenario: Scenario,
    target_raw_hz: float,
    target_qber: float,
    *,
    free: Sequence[str] = ("transmittance", "visibility"),
) -> CalibrationResult:
    """Fit the free loop parameters so the closed-form oracle hits the targets.

    Solves the in-loop attenuator transmittance against the raw (sifted) key
    rate and a polarization-rotation angle against the error rate, holding
    the scenario's detector efficiency and dark probability fixed.  Both
    one-dimensional solves are bisections on the exact expectation; the pair
    is alternated until residuals are below 1e-6 relative.  The rotation is
    circular birefringence, which the counter-propagating loop does not
    cancel, so it realizes exactly the fitted visibility cos(2 * angle).
    """
    if scenario.ring is not None:
        raise ScenarioError("calibrate expects a two-party loop scenario")
    for name in free:
        if name not in ("transmittance", "visibility"):
            raise ScenarioError(f"unknown free parameter {name!r}; use transmittance, visibility")
    if target_raw_hz <= 0.0:
        raise ScenarioError(f"target raw rate must be > 0, got {target_raw_hz:g}")
    if not (0.0 <= target_qber < 0.5):
        raise ScenarioError(f"target QBER must be in [0, 0.5), got {target_qber:g}")

    base = copy.deepcopy(scenario.effective)

    def evaluate(transmittance: float, angle: float):
        eff = copy.deepcopy(base)
        eff["loop"]["attenuator_transmittance"] = float(transmittance)
        eff["loop"]["delay_jones"] = {"kind": "rotation", "angle": float(angle)}
        return expected_for_scenario(build_scenario(eff))

    def rate(t: float, angle: float) -> float:
        return evaluate(t, angle).raw_rate

    def qber(t: float, angle: float) -> float:
        return evaluate(t, angle).qber

    t_sol = base["loop"]["attenuator_transmittance"]
    angle_sol = 0.0
    t_floor = 1e-9

    if "transmittance" in free:
        r_max, r_min = rate(1.0, angle_sol), rate(t_floor, angle_sol)
        if not (r_min <= target_raw_hz <= r_max):
            raise ScenarioError(
                f"target raw rate {target_raw_hz:g} Hz is not achievable; "
                f"this scenario reaches [{r_min:.6g}, {r_max:.6g}] Hz"
            )
    if "visibility" in free:
        q_floor = qber(t_sol, 0.0)
        q_ceil = qber(t_sol, math.pi / 4.0)  # visibility 0
        if not (q_floor - 1e-12 <= target_qber <= q_ceil + 1e-12):
            raise ScenarioError(
                f"target QBER {target_qber:g} is not achievable; "
                f"this scenario reaches [{q_floor:.6g}, {q_ceil:.6g}]"
            )

    for _ in range(12):
        changed = 0.0
        if "transmittance" in free:
            new_t = _bisect(lambda t: rate(t, angle_sol), t_floor, 1.0, target_raw_hz, increasing=True)
            changed = max(changed, abs(new_t - t_sol))
            t_sol = new_t
        if "visibility" in free:
            new_angle = _bisect(
                lambda a: qber(t_sol, a), 0.0, math.pi / 4.0, target_qber, increasing=True
            )
            changed = max(changed, abs(new_angle - angle_sol))
            angle_sol = new_angle
        got = evaluate(t_sol, angle_sol)
        rate_ok = abs(got.raw_rate - target_raw_hz) <= _CAL_REL_TOL * target_raw_hz
        qber_ok = (
            abs(got.qber - target_qber) <= _CAL_REL_TOL * max(target_qber, 1e-12)
            or "visibility" not in free
        )
        if (rate_ok or "transmittance" not in free) and qber_ok:
            break

    fitted = copy.deepcopy(base)
    fitted["loop"]["attenuator_transmittance"] = float(t_sol)
    fitted["loop"]["delay_jones"] = {"kind": "rotation", "angle": float(angle_sol)}
    fitted_scenario = build_scenario(fitted)
    got = expected_for_scenario(fitted_scenario)
    return CalibrationResult(
        effective=fitted_scenario.effective,
        transmittance=float(t_sol),
        visibility=math.cos(2.0 * angle_sol),
        rotation_angle=float(angle_sol),
        expected_raw_rate=got.raw_rate,
        expected_qber=got.qber,
        expected_sifted_prob=got.sifted_prob,
    )


# --------------------------------------------------------------------------
# CSV emission (schema-versioned; identical input -> identical bytes)
# --------------------------------------------------------------------------

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
    s = report.stats
    lines = [
        f"# schema loopqkd.run.{CSV_SCHEMA_VERSION}",
        ",".join(_RUN_FIELDS),
        ",".join(
            _fmt(v)
            for v in (
                report.digest,
                report.seed,
                report.pulses,
                s.raw_clicks,
                s.sifted_bits,
                s.errors,
                s.disclosed_bits,
                s.raw_rate,
                s.qber,
                s.qber_low,
                s.qber_high,
            )
        ),
    ]
    return "\n".join(lines) + "\n"


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
    lines = [f"# schema loopqkd.sweep.{CSV_SCHEMA_VERSION}", ",".join(_SWEEP_FIELDS)]
    for row in report.rows:
        lines.append(",".join(_fmt(row[f]) for f in _SWEEP_FIELDS))
    return "\n".join(lines) + "\n"


def fringe_csv(rows: Sequence[dict]) -> str:
    lines = [f"# schema loopqkd.fringe.{CSV_SCHEMA_VERSION}", "delta_phi,p1,p2"]
    for row in rows:
        lines.append(",".join(_fmt(row[k]) for k in ("delta_phi", "p1", "p2")))
    return "\n".join(lines) + "\n"


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


def transcript_csv(transcript: Transcript) -> str:
    t = transcript
    columns = (
        map(str, range(len(t))),
        _column(t.alice_bits),
        _column(t.alice_bases),
        _column(t.bob_bases),
        _column(t.phi_a),
        _column(t.phi_b),
        _column(t.outcome, lambda c: _OUTCOME_NAMES[c]),
        _column(t.sifted, lambda s: "1" if s else "0"),
        _column(np.where(t.sifted, t.decoded, -1), lambda b: "" if b < 0 else str(b)),
    )
    lines = (
        f"# schema loopqkd.transcript.{CSV_SCHEMA_VERSION}",
        ",".join(_TRANSCRIPT_FIELDS),
        *map(",".join, zip(*columns)),
    )
    return "\n".join(lines) + "\n"

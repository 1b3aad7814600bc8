import copy
import dataclasses
import hashlib
import io
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from loopqkd import harness
from loopqkd.harness import (
    ScenarioError,
    build_scenario,
    calibrate,
    dump_scenario,
    expected_for_scenario,
    fringe,
    fringe_csv,
    load_scenario,
    numeric_axes,
    run,
    run_csv,
    sweep,
    sweep_csv,
    transcript_csv,
)
from loopqkd.bb84 import PHASE_CODING, EveConfig, EveStrategy
from loopqkd.jones import JonesOperator
from loopqkd.loopmodel import (
    DEFAULT_GATE_WIDTH,
    Component,
    LoopConfig,
    fringe_coefficients,
    modulator_separation,
    standard_loop,
)
from loopqkd.loopnet import DisturbanceKind, Entity, RingConfig, noise_taps
from loopqkd.quantumchannel import DetectorParams, SourceParams
from loopqkd.session import SessionParams

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def write_scenario(tmp_path, text, name="s.yaml"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


# ---------------------------------------------------------------- loading


def test_minimal_file_gets_ideal_defaults(tmp_path):
    path = write_scenario(tmp_path, "source: {mu: 0.05}\nprotocol: {pulses: 1234}\n")
    sc = load_scenario(path)
    assert sc.source.mu == 0.05
    assert sc.pulses == 1234
    assert sc.source.rep_rate == 100e3
    assert sc.source.wavelength == pytest.approx(830e-9)
    assert sc.detectors.efficiency == 1.0
    assert sc.detectors.dark_prob == 0.0
    assert sc.effective["loop"]["upper_length"] == 200.0
    assert sc.effective["loop"]["lower_length"] == 200.0
    assert sc.effective["loop"]["delay_length"] == 800.0
    assert sc.effective["loop"]["loss_db_per_km"] == 0.0
    assert sc.effective["loop"]["attenuator_transmittance"] == 1.0
    assert fringe_coefficients(sc.loop).visibility == pytest.approx(1.0, abs=1e-12)


def _assert_fields_equal(got, want, cls, skip=()):
    for f in dataclasses.fields(cls):
        if f.name in skip:
            continue
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(a, JonesOperator):
            assert np.array_equal(a.m, b.m), f.name
        else:
            assert a == b, f.name


def _default(cls, name):
    return next(f.default for f in dataclasses.fields(cls) if f.name == name)


def test_schema_defaults_equal_constructor_defaults():
    # the schema table repeats the constructors' defaults; they must agree
    sc = build_scenario({})
    assert sc.source == SourceParams()
    assert sc.detectors == DetectorParams()
    assert sc.eve == EveConfig()
    assert sc.disclosed_fraction == _default(SessionParams, "disclosed_fraction")
    want = standard_loop()
    _assert_fields_equal(sc.loop, want, LoopConfig, skip=("components",))
    assert len(sc.loop.components) == len(want.components)
    for got, ref in zip(sc.loop.components, want.components):
        _assert_fields_equal(got, ref, Component)

    ring = build_scenario({"ring": {"entities": [{"id": "a"}]}}).ring
    _assert_fields_equal(ring.entities[0], Entity("a"), Entity)
    for name in ("delay_length", "loss_db_per_km", "coupler_ratio"):
        assert getattr(ring, name) == _default(RingConfig, name), name


def test_shipped_paper_scenario_matches_bench_geometry():
    sc = load_scenario(str(SCENARIOS / "paper_ideal.yaml"))
    assert sc.source.mu == 0.1
    assert sc.source.rep_rate == 100e3
    assert sc.effective["loop"]["upper_length"] == 200.0
    assert sc.effective["loop"]["lower_length"] == 200.0
    assert sc.effective["loop"]["delay_length"] == 800.0


def test_negative_mu_rejected(tmp_path):
    path = write_scenario(tmp_path, "source: {mu: -1.0}\n")
    with pytest.raises(ScenarioError, match="source.mu"):
        load_scenario(path)


def test_unknown_keys_rejected_with_path(tmp_path):
    path = write_scenario(tmp_path, "source: {mu: 0.1, brightness: 3}\n")
    with pytest.raises(ScenarioError, match=r"source.*'brightness'"):
        load_scenario(path)
    path = write_scenario(tmp_path, "loop: {upper_fibre: 100}\n", name="s2.yaml")
    with pytest.raises(ScenarioError, match="upper_fibre"):
        load_scenario(path)


@pytest.mark.parametrize(
    "text, key, line",
    [
        ("source: {mu: 0.1, mu: 0.5}\n", "mu", 1),
        ("loop: {upper_length: 100}\nsource: {mu: 0.2}\nloop: {lower_length: 100}\n", "loop", 3),
    ],
    ids=["leaf", "section"],
)
def test_duplicate_keys_rejected_with_line(tmp_path, text, key, line):
    # a plain YAML load keeps the last of two equal keys and runs on it
    path = write_scenario(tmp_path, text)
    with pytest.raises(ScenarioError, match=rf"duplicate key '{key}'\n.*line {line},"):
        load_scenario(path)


def test_parse_error_carries_location(tmp_path):
    path = write_scenario(tmp_path, "source: {mu: 0.1\nprotocol: [}\n")
    with pytest.raises(ScenarioError, match="line"):
        load_scenario(path)


def test_loop_and_ring_are_exclusive(tmp_path):
    path = write_scenario(
        tmp_path,
        "loop: {upper_length: 100}\nring: {entities: [{id: a}], link_lengths: [1, 1]}\n",
    )
    with pytest.raises(ScenarioError, match="not both"):
        load_scenario(path)


def test_bare_off_is_accepted_for_eve_strategy(tmp_path):
    # YAML 1.1 parses unquoted `off` as boolean false; the loader maps it back
    path = write_scenario(tmp_path, "eve: {strategy: off, fraction: 0.0}\n")
    sc = load_scenario(path)
    assert sc.eve.strategy.value == "off"


def test_ring_scenario_loads_and_validates():
    sc = load_scenario(str(SCENARIOS / "network_four_party.yaml"))
    assert sc.ring is not None
    assert sc.partner == "alice"
    assert sc.ring.entity_ids() == ("alice", "david", "fox", "george")
    with pytest.raises(ScenarioError, match="partner"):
        build_scenario(
            {
                "ring": {
                    "partner": "nobody",
                    "entities": [{"id": "a"}],
                    "link_lengths": [1.0, 1.0],
                }
            }
        )


# ---------------------------------------------------------------- malformed scenarios

_RING = {"entities": [{"id": "a"}], "link_lengths": [1.0, 1.0]}


def _ring(**fields):
    return {"ring": {**_RING, **fields}}


def _entity(**fields):
    return _ring(entities=[{"id": "a", **fields}])


def _loop(**fields):
    return {"loop": fields}


# Every raise site of the scenario parser, each with its exact message.
MALFORMED = {
    # non-mapping nodes
    "top_not_mapping": ([1, 2], "scenario: expected a mapping, got list"),
    "source_not_mapping": ({"source": 3}, "source: expected a mapping, got int"),
    "protocol_not_mapping": ({"protocol": "fast"}, "protocol: expected a mapping, got str"),
    "loop_not_mapping": ({"loop": [1]}, "loop: expected a mapping, got list"),
    "ring_not_mapping": ({"ring": [1]}, "ring: expected a mapping, got list"),
    "entity_not_mapping": (
        _ring(entities=["a"]),
        "ring.entities[0]: expected a mapping, got str",
    ),
    "jones_not_mapping": (
        _loop(upper_jones=5),
        "loop.upper_jones: expected a mapping, got int",
    ),
    # unknown keys
    "top_unknown": (
        {"sead": 1},
        "scenario: unknown key(s) 'sead'; "
        "allowed: seed, source, detectors, protocol, loop, eve, ring",
    ),
    "loop_and_ring": (
        {"loop": {}, "ring": _RING},
        "scenario: give either a loop or a ring section, not both",
    ),
    "source_unknown": (
        {"source": {"brightness": 3}},
        "source: unknown key(s) 'brightness'; allowed: mu, rep_rate, wavelength",
    ),
    "detectors_unknown": (
        {"detectors": {"gain": 1}},
        "detectors: unknown key(s) 'gain'; allowed: efficiency, dark_prob",
    ),
    "protocol_unknown": (
        {"protocol": {"rounds": 1}},
        "protocol: unknown key(s) 'rounds'; "
        "allowed: pulses, double_click_policy, disclosed_fraction",
    ),
    "eve_unknown": (
        {"eve": {"power": 1}},
        "eve: unknown key(s) 'power'; allowed: strategy, fraction",
    ),
    "loop_unknown": (
        _loop(upper_fibre=100),
        "loop: unknown key(s) 'upper_fibre'; allowed: upper_length, lower_length, "
        "delay_length, loss_db_per_km, coupler_ratio, attenuator_transmittance, "
        "source_pol, upper_jones, lower_jones, delay_jones",
    ),
    "ring_unknown": (
        _ring(hub="b"),
        "ring: unknown key(s) 'hub'; allowed: partner, entities, link_lengths, "
        "delay_length, loss_db_per_km, coupler_ratio",
    ),
    "entity_unknown": (
        _entity(colour="red"),
        "ring.entities[0]: unknown key(s) 'colour'; allowed: id, attenuator_transmittance, "
        "insertion_transmittance, disturbance_sigma, disturbance_kind",
    ),
    "identity_unknown": (
        _loop(upper_jones={"angle": 1.0}),
        "loop.upper_jones: unknown key(s) 'angle'; allowed: kind",
    ),
    "rotation_unknown": (
        _loop(lower_jones={"kind": "rotation", "delta": 1.0}),
        "loop.lower_jones: unknown key(s) 'delta'; allowed: kind, angle",
    ),
    "retarder_unknown": (
        _loop(delay_jones={"kind": "retarder", "angle": 1.0}),
        "loop.delay_jones: unknown key(s) 'angle'; allowed: kind, delta, theta",
    ),
    "random_unitary_unknown": (
        _loop(delay_jones={"kind": "random_unitary", "angle": 1.0}),
        "loop.delay_jones: unknown key(s) 'angle'; allowed: kind, seed",
    ),
    # integers and numbers
    "seed_bool": ({"seed": True}, "scenario.seed: expected an integer, got True"),
    "seed_float": ({"seed": 1.5}, "scenario.seed: expected an integer, got 1.5"),
    "pulses_float": (
        {"protocol": {"pulses": 2.0}},
        "protocol.pulses: expected an integer, got 2.0",
    ),
    "jones_seed_bool": (
        _loop(upper_jones={"kind": "random_unitary", "seed": False}),
        "loop.upper_jones.seed: expected an integer, got False",
    ),
    "mu_str": ({"source": {"mu": "0.1"}}, "source.mu: expected a number, got '0.1'"),
    "mu_null": ({"source": {"mu": None}}, "source.mu: expected a number, got None"),
    "upper_length_str": (
        _loop(upper_length="x"),
        "loop.upper_length: expected a number, got 'x'",
    ),
    "angle_str": (
        _loop(delay_jones={"kind": "rotation", "angle": "x"}),
        "loop.delay_jones.angle: expected a number, got 'x'",
    ),
    "ring_delay_str": (_ring(delay_length="x"), "ring.delay_length: expected a number, got 'x'"),
    "entity_attenuator_str": (
        _entity(attenuator_transmittance="1"),
        "ring.entities[0].attenuator_transmittance: expected a number, got '1'",
    ),
    # choices
    "policy_choice": (
        {"protocol": {"double_click_policy": "keep"}},
        "protocol.double_click_policy: expected one of ('discard', 'random_assign'), got 'keep'",
    ),
    "eve_choice": (
        {"eve": {"strategy": "mitm"}},
        "eve.strategy: expected one of ('off', 'intercept_resend'), got 'mitm'",
    ),
    "eve_choice_bare_on": (
        {"eve": {"strategy": True}},
        "eve.strategy: expected one of ('off', 'intercept_resend'), got True",
    ),
    "disturbance_kind_choice": (
        _entity(disturbance_kind="pink"),
        "ring.entities[0].disturbance_kind: expected one of ('gaussian', 'uniform'), got 'pink'",
    ),
    "jones_kind_choice": (
        _loop(upper_jones={"kind": "mirror"}),
        "loop.upper_jones.kind: expected one of "
        "('identity', 'rotation', 'retarder', 'random_unitary'), got 'mirror'",
    ),
    # source polarization
    "source_pol_shape": (
        _loop(source_pol=[[1.0, 0.0]]),
        "loop.source_pol: expected [[re_x, im_x], [re_y, im_y]]",
    ),
    "source_pol_entries": (
        _loop(source_pol=[["a", 0.0], [0.0, 0.0]]),
        "loop.source_pol: entries must be numbers (could not convert string to float: 'a')",
    ),
    "source_pol_normalization": (
        _loop(source_pol=[[1.0, 0.0], [1.0, 0.0]]),
        "loop.source_pol: polarization must be normalized, |s|^2 = 2",
    ),
    # ring entities, links and partner
    "entities_absent": (
        {"ring": {"link_lengths": [1.0]}},
        "ring.entities: expected a non-empty list",
    ),
    "entities_empty": (_ring(entities=[]), "ring.entities: expected a non-empty list"),
    "entities_not_list": (_ring(entities={"id": "a"}), "ring.entities: expected a non-empty list"),
    "entity_id_missing": (_ring(entities=[{}]), "ring.entities[0].id: expected a non-empty string"),
    "entity_id_empty": (
        _ring(entities=[{"id": ""}]),
        "ring.entities[0].id: expected a non-empty string",
    ),
    "entity_id_not_str": (
        _ring(entities=[{"id": 3}]),
        "ring.entities[0].id: expected a non-empty string",
    ),
    "entity_id_duplicate": (
        _ring(entities=[{"id": "a"}, {"id": "a"}], link_lengths=[1.0, 1.0, 1.0]),
        "duplicate entity ids in ring: ['a', 'a']",
    ),
    "link_lengths_not_list": (
        _ring(link_lengths="100"),
        "ring.link_lengths: expected a list of lengths in meters",
    ),
    "link_lengths_entry": (
        _ring(link_lengths=[1.0, "x"]),
        "ring.link_lengths[1]: expected a number, got 'x'",
    ),
    "link_lengths_count": (
        _ring(link_lengths=[1.0]),
        "ring with 1 entities needs 2 link fibers, got 1",
    ),
    "link_lengths_negative": (
        _ring(link_lengths=[-1.0, 1.0]),
        "link length must be >= 0, got -1.0",
    ),
    "partner_unknown": (_ring(partner="nobody"), "ring.partner: 'nobody' not in ring (a)"),
    "partner_not_str": (_ring(partner=3), "ring.partner: 3 not in ring (a)"),
    "partner_float": (_ring(partner=0.5), "ring.partner: 0.5 not in ring (a)"),
    # seed range
    "seed_negative": ({"seed": -1}, "scenario.seed must fit in 64 bits, got -1"),
    "seed_2_64": (
        {"seed": 2**64},
        "scenario.seed must fit in 64 bits, got 18446744073709551616",
    ),
    # dataclass range checks
    "mu_negative": ({"source": {"mu": -1.0}}, "source.mu must be >= 0, got -1.0"),
    "rep_rate_zero": ({"source": {"rep_rate": 0}}, "source.rep_rate must be > 0, got 0.0"),
    "wavelength_zero": (
        {"source": {"wavelength": 0.0}},
        "source.wavelength must be > 0, got 0.0",
    ),
    "efficiency_above_1": (
        {"detectors": {"efficiency": 1.5}},
        "detectors.efficiency must be in [0, 1], got 1.5",
    ),
    "dark_prob_1": (
        {"detectors": {"dark_prob": 1.0}},
        "detectors.dark_prob must be in [0, 1), got 1.0",
    ),
    "pulses_zero": ({"protocol": {"pulses": 0}}, "protocol.pulses must be >= 1, got 0"),
    "disclosed_zero": (
        {"protocol": {"disclosed_fraction": 0.0}},
        "protocol.disclosed_fraction must be in (0, 1], got 0.0",
    ),
    "disclosed_above_1": (
        {"protocol": {"disclosed_fraction": 1.5}},
        "protocol.disclosed_fraction must be in (0, 1], got 1.5",
    ),
    "eve_fraction": ({"eve": {"fraction": 1.5}}, "eve.fraction must be in [0, 1], got 1.5"),
    # keys the model would never read
    "eve_fraction_without_eve": (
        {"eve": {"strategy": "off", "fraction": 0.5}},
        "eve.fraction 0.5 has no effect: eve.strategy is off, so no pulse is attacked",
    ),
    "uniform_entity_sigma": (
        _entity(disturbance_kind="uniform", disturbance_sigma=0.4),
        "ring.entities[0].disturbance_sigma 0.4 has no effect: "
        "a uniform module draws its phase over the whole circle",
    ),
    "uniform_entity_sigma_negative": (
        _entity(disturbance_kind="uniform", disturbance_sigma=-1.0),
        "entity a: disturbance_sigma must be >= 0",
    ),
    "loop_coupler_ratio": (
        _loop(coupler_ratio=1.0),
        "coupler_ratio must be in (0, 1), got 1.0",
    ),
    "loop_length_negative": (
        _loop(upper_length=-1.0),
        "upper-link: fiber length must be >= 0 m, got -1.0",
    ),
    "loop_delay_negative": (
        _loop(delay_length=-5.0),
        "delay: fiber length must be >= 0 m, got -5.0",
    ),
    "loop_loss_negative": (
        _loop(loss_db_per_km=-1.0),
        "delay: loss_db_per_km must be >= 0, got -1.0",
    ),
    "loop_attenuator_zero": (
        _loop(attenuator_transmittance=0.0),
        "attenuator: attenuator transmittance must be in (0, 1], got 0.0",
    ),
    "loop_attenuator_above_1": (
        _loop(attenuator_transmittance=1.5),
        "attenuator: attenuator transmittance must be in (0, 1], got 1.5",
    ),
    "entity_attenuator_zero": (
        _entity(attenuator_transmittance=0.0),
        "entity a: attenuator_transmittance must be in (0, 1]",
    ),
    "entity_insertion_above_1": (
        _entity(insertion_transmittance=1.5),
        "entity a: insertion_transmittance must be in (0, 1]",
    ),
    "entity_sigma_negative": (
        _entity(disturbance_sigma=-1.0),
        "entity a: disturbance_sigma must be >= 0",
    ),
    # ring geometry, checked through the flattened loop
    "ring_coupler_ratio": (_ring(coupler_ratio=7.0), "coupler_ratio must be in (0, 1), got 7.0"),
    "ring_delay_negative": (
        _ring(delay_length=-5),
        "delay: fiber length must be >= 0 m, got -5.0",
    ),
    "ring_loss_negative": (
        _ring(loss_db_per_km=-1.0),
        "delay: loss_db_per_km must be >= 0, got -1.0",
    ),
    # non-finite numbers
    "mu_inf": ({"source": {"mu": math.inf}}, "source.mu: expected a finite number, got inf"),
    "mu_nan": ({"source": {"mu": math.nan}}, "source.mu: expected a finite number, got nan"),
    "mu_beyond_float": (
        {"source": {"mu": 10**400}},
        "source.mu: expected a finite number, got inf",
    ),
    "rep_rate_inf": (
        {"source": {"rep_rate": math.inf}},
        "source.rep_rate: expected a finite number, got inf",
    ),
    "wavelength_inf": (
        {"source": {"wavelength": math.inf}},
        "source.wavelength: expected a finite number, got inf",
    ),
    "eve_fraction_nan": (
        {"eve": {"fraction": math.nan}},
        "eve.fraction: expected a finite number, got nan",
    ),
    "loop_loss_inf": (
        _loop(loss_db_per_km=math.inf),
        "loop.loss_db_per_km: expected a finite number, got inf",
    ),
    "angle_nan": (
        _loop(delay_jones={"kind": "rotation", "angle": math.nan}),
        "loop.delay_jones.angle: expected a finite number, got nan",
    ),
    "link_lengths_inf": (
        _ring(link_lengths=[math.inf, 1.0]),
        "ring.link_lengths[0]: expected a finite number, got inf",
    ),
    "ring_loss_inf": (
        _ring(loss_db_per_km=math.inf),
        "ring.loss_db_per_km: expected a finite number, got inf",
    ),
    "source_pol_beyond_float": (
        _loop(source_pol=[[10**400, 0.0], [0.0, 0.0]]),
        "loop.source_pol: entries must be numbers (int too large to convert to float)",
    ),
    "entity_sigma_inf": (
        _entity(disturbance_sigma=-math.inf),
        "ring.entities[0].disturbance_sigma: expected a finite number, got -inf",
    ),
    "jones_seed_negative": (
        _loop(delay_jones={"kind": "random_unitary", "seed": -1}),
        "loop.delay_jones.seed: expected a non-negative integer, got -1",
    ),
}


@pytest.mark.parametrize("raw, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_scenario_message(raw, message):
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        build_scenario(copy.deepcopy(raw))


def test_each_component_is_checked_once(monkeypatch):
    """One passivity check per component across a loop's build, oracle and run."""
    calls = 0
    is_diattenuator = JonesOperator.is_diattenuator

    def counted(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return is_diattenuator(self, *args, **kwargs)

    monkeypatch.setattr(JonesOperator, "is_diattenuator", counted)
    raw = yaml.safe_load((SCENARIOS / "paper_calibrated.yaml").read_text(encoding="utf-8"))
    sc = build_scenario(raw)
    expected_for_scenario(sc)
    run(sc, pulses=1000)
    assert calls == len(sc.loop.components) == 6


# Digest and sha256 of the dumped effective mapping of every shipped scenario.
PINNED = {
    "paper_calibrated": (
        "scenarios/paper_calibrated.yaml",
        "bff53fe62031aa7a",
        "62ced0108c96e1c122e5b28e8a9615e264d4d7464200036c406eff9dd925d137",
    ),
    "paper_ideal": (
        "scenarios/paper_ideal.yaml",
        "398318d9465b2a20",
        "919d523ca9b1c0cfaa9c1b3cf79efe5e038b32a9fa43c439465ca699b990b3d8",
    ),
    "calibration_base": (
        "scenarios/calibration_base.yaml",
        "a617fd2a7febf323",
        "a12eeefc4ed9408b8637fae44ae3fd5e8891c25273996296083056f7a74c723e",
    ),
    "network_four_party": (
        "scenarios/network_four_party.yaml",
        "6f0893f05ee78d5c",
        "ff427f1a11ab8474734ebe465cfe03d1c613a106f7b0c78a8c3add7ddc06fddb",
    ),
    "ring_noisy": (
        "perfbench/scenarios/ring_noisy.yaml",
        "0e40c8e55e64ad70",
        "07df869f71de41b560f30fa4a5eb937b07ac25c6fefd385b21cdb599d1b7b3b0",
    ),
}


@pytest.mark.parametrize("path, digest, dump_sha256", PINNED.values(), ids=PINNED.keys())
def test_scenario_digest_and_dump_are_pinned(path, digest, dump_sha256):
    sc = load_scenario(str(ROOT / path))
    assert sc.digest == digest
    assert hashlib.sha256(dump_scenario(sc.effective).encode()).hexdigest() == dump_sha256


def test_dump_and_reload_roundtrip():
    sc = load_scenario(str(SCENARIOS / "paper_calibrated.yaml"))
    again = build_scenario(yaml.safe_load(dump_scenario(sc.effective)))
    assert again.digest == sc.digest


_unit = st.floats(0.0, 1.0)
_length = st.floats(0.0, 1e5)
_JONES_SPECS = st.one_of(
    st.just({"kind": "identity"}),
    st.builds(lambda a: {"kind": "rotation", "angle": a}, st.floats(-7.0, 7.0)),
    st.builds(
        lambda d, t: {"kind": "retarder", "delta": d, "theta": t},
        st.floats(-7.0, 7.0),
        st.floats(-7.0, 7.0),
    ),
    st.builds(lambda s: {"kind": "random_unitary", "seed": s}, st.integers(0, 2**32)),
    st.just({}),
)


@st.composite
def _source_pol(draw):
    a, b = draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, 2.0 * math.pi))
    return [[math.cos(a), 0.0], [math.sin(a) * math.cos(b), math.sin(a) * math.sin(b)]]


@st.composite
def _ring_section(draw):
    n = draw(st.integers(1, 4))
    ids = [f"e{i}" for i in range(n)]
    loss = {
        "attenuator_transmittance": st.floats(1e-6, 1.0),
        "insertion_transmittance": st.floats(1e-6, 1.0),
    }
    # a uniform module never reads sigma, so only its default 0 is accepted
    entity = st.one_of(
        st.fixed_dictionaries(
            {},
            optional={
                **loss,
                "disturbance_sigma": st.floats(0.0, 3.0),
                "disturbance_kind": st.just("gaussian"),
            },
        ),
        st.fixed_dictionaries(
            {"disturbance_kind": st.just("uniform")},
            optional={**loss, "disturbance_sigma": st.just(0.0)},
        ),
    )
    ring = draw(
        st.fixed_dictionaries(
            {"entities": st.tuples(*[entity] * n)},
            optional={
                "partner": st.sampled_from(ids),
                "link_lengths": st.lists(_length, min_size=n + 1, max_size=n + 1),
                "delay_length": _length,
                "loss_db_per_km": st.floats(0.0, 5.0),
                "coupler_ratio": st.floats(0.01, 0.99),
            },
        )
    )
    ring["entities"] = [{"id": i, **e} for i, e in zip(ids, ring["entities"])]
    return ring


_LOOP_SECTION = st.fixed_dictionaries(
    {},
    optional={
        "upper_length": _length,
        "lower_length": _length,
        "delay_length": _length,
        "loss_db_per_km": st.floats(0.0, 5.0),
        "coupler_ratio": st.floats(0.01, 0.99),
        "attenuator_transmittance": st.floats(1e-6, 1.0),
        "source_pol": _source_pol(),
        "upper_jones": _JONES_SPECS,
        "lower_jones": _JONES_SPECS,
        "delay_jones": _JONES_SPECS,
    },
)

_SCENARIOS = st.fixed_dictionaries(
    {},
    optional={
        "seed": st.integers(0, 2**64 - 1),
        "source": st.fixed_dictionaries(
            {},
            optional={
                "mu": st.floats(0.0, 10.0),
                "rep_rate": st.floats(1.0, 1e9),
                "wavelength": st.floats(1e-7, 2e-6),
            },
        ),
        "detectors": st.fixed_dictionaries(
            {}, optional={"efficiency": _unit, "dark_prob": st.floats(0.0, 0.5)}
        ),
        "protocol": st.fixed_dictionaries(
            {},
            optional={
                "pulses": st.integers(1, 10**9),
                "double_click_policy": st.sampled_from(["discard", "random_assign"]),
                "disclosed_fraction": st.floats(0.01, 1.0),
            },
        ),
        # no eavesdropper attacks no fraction
        "eve": st.one_of(
            st.fixed_dictionaries(
                {}, optional={"strategy": st.just("off"), "fraction": st.just(0.0)}
            ),
            st.fixed_dictionaries(
                {"strategy": st.just("intercept_resend")}, optional={"fraction": _unit}
            ),
        ),
    },
)


@settings(max_examples=150, deadline=None)
@given(
    _SCENARIOS,
    st.one_of(
        st.builds(lambda loop: {"loop": loop}, _LOOP_SECTION),
        st.builds(lambda ring: {"ring": ring}, _ring_section()),
        st.just({}),
    ),
)
def test_dump_and_reload_keeps_the_digest(common, topology):
    sc = build_scenario({**common, **topology})
    again = build_scenario(yaml.safe_load(dump_scenario(sc.effective)))
    assert again.effective == sc.effective
    assert again.digest == sc.digest


# ---------------------------------------------------------------- digest


def test_digest_covers_every_effective_parameter():
    ideal = load_scenario(str(SCENARIOS / "paper_ideal.yaml")).effective
    # armed, so that eve.fraction is read
    base = build_scenario({**ideal, "eve": {"strategy": "intercept_resend", "fraction": 0.0}})
    seen = {base.digest}
    for axis in numeric_axes(base.effective):
        if axis.startswith("loop.source_pol"):
            continue  # bumping one component alone breaks normalization
        eff = copy.deepcopy(base.effective)
        harness._set_path(eff, axis, 0.31 if "seed" not in axis and "pulses" not in axis else 7)
        changed = build_scenario(eff)
        assert changed.digest != base.digest, axis
        assert changed.digest not in seen, axis
        seen.add(changed.digest)
    for mutate in (
        lambda e: e["eve"].__setitem__("strategy", "off"),
        lambda e: e["protocol"].__setitem__("double_click_policy", "random_assign"),
        lambda e: e["loop"].__setitem__("source_pol", [[0.0, 0.0], [1.0, 0.0]]),
        lambda e: e["loop"].__setitem__("delay_jones", {"kind": "rotation", "angle": 0.2}),
    ):
        eff = copy.deepcopy(base.effective)
        mutate(eff)
        assert build_scenario(eff).digest != base.digest


# ---------------------------------------------------------------- running


def test_run_matches_closed_form_oracle():
    sc = load_scenario(str(SCENARIOS / "paper_ideal.yaml"))
    exp = expected_for_scenario(sc)
    assert exp.sifted_prob == pytest.approx(0.5 * (1 - math.exp(-0.1)), abs=1e-12)
    pulses = 300_000
    report, _ = run(sc, pulses=pulses)
    sd = math.sqrt(pulses * exp.sifted_prob * (1 - exp.sifted_prob))
    assert abs(report.stats.sifted_bits - pulses * exp.sifted_prob) < 3 * sd
    assert report.stats.errors == 0
    assert report.digest == sc.digest


def test_oracle_models_eve_and_ring_noise():
    # Eve on half the pulses and david's phase noise put this ring's QBER near 0.18
    ring = load_scenario(str(ROOT / "perfbench" / "scenarios" / "ring_noisy.yaml"))
    exp = expected_for_scenario(ring)
    assert exp.sifted_prob == pytest.approx(0.0176895, abs=1e-6)
    assert exp.qber == pytest.approx(0.180627, abs=1e-6)
    report, _ = run(ring)  # the file's own 1 M pulses
    assert all(abs(z) < 3.0 for z in harness.oracle_z_scores(report.stats, exp))
    eff = copy.deepcopy(ring.effective)
    eff["eve"]["fraction"] = 0.0
    unattacked = build_scenario(eff)
    assert 0.05 < expected_for_scenario(unattacked).qber < exp.qber
    # david's own module is his modulator, so his session has no noise tap
    assert expected_for_scenario(unattacked, partner="david").qber < 1e-3

    ideal = load_scenario(str(SCENARIOS / "paper_ideal.yaml"))
    eff = copy.deepcopy(ideal.effective)
    eff["eve"] = {"strategy": "intercept_resend", "fraction": 0.0}
    # an eavesdropper who attacks nothing changes nothing
    assert expected_for_scenario(build_scenario(eff)) == expected_for_scenario(ideal)
    eff["eve"]["fraction"] = 0.5
    assert expected_for_scenario(build_scenario(eff)).qber == pytest.approx(0.125, abs=0.01)


def test_uniform_module_without_sigma_randomizes_key():
    # a uniform tap never reads sigma, so the default sigma 0 still disturbs
    sc = build_scenario(
        {"ring": {"partner": "a", "entities": [{"id": "a"}, {"id": "b", "disturbance_kind": "uniform"}]}}
    )
    report, _ = run(sc, pulses=100_000)
    s = report.stats
    assert s.disclosed_bits > 4000
    assert abs(s.qber - 0.5) < 3.0 * math.sqrt(0.25 / s.disclosed_bits)
    assert abs(expected_for_scenario(sc).qber - 0.5) < 1e-12


SHIPPED = sorted(SCENARIOS.glob("*.yaml")) + sorted((ROOT / "perfbench" / "scenarios").glob("*.yaml"))


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_shipped_scenarios_keep_pulses_apart_at_every_modulator(path):
    # so PhaseTable.through keeps every phase and moves no shipped output:
    # the two passes of a pulse, and the passes of later pulses, stay a gate apart
    sc = load_scenario(str(path))
    period = 1.0 / sc.source.rep_rate
    for partner in [None] if sc.ring is None else sc.ring.entity_ids():
        loop = sc.effective_loop(partner)
        for owner in ("alice", "bob"):
            gap = abs(math.remainder(modulator_separation(loop, owner), period))
            assert gap >= DEFAULT_GATE_WIDTH, (partner, owner)
        table = PHASE_CODING.through(loop, period)
        assert np.array_equal(table.cell_deltas, PHASE_CODING.cell_deltas)


def engine_reads(sc):
    """All that the engine reads of a scenario, for every ring partner: the
    session parameters but the wavelength, and Eve's fraction only while she
    attacks; each loop's fringe and modulator separations; and the noise
    taps, with the sigma of Gaussian ones only."""
    p = sc.session_params()
    source = SourceParams(p.source.mu, p.source.rep_rate)
    eve = EveConfig() if p.eve.strategy is EveStrategy.OFF else p.eve
    reads = [dataclasses.replace(p, source=source, eve=eve)]
    for partner in [None] if sc.ring is None else sc.ring.entity_ids():
        loop = sc.effective_loop(partner)
        separations = [modulator_separation(loop, owner) for owner in ("alice", "bob")]
        taps = () if partner is None else noise_taps(sc.ring, partner)
        taps = [(t.tag, t.kind, t.sigma if t.kind is DisturbanceKind.GAUSSIAN else None) for t in taps]
        reads.append((fringe_coefficients(loop), separations, taps))
    return reads


def _leaf(node, axis):
    for part in axis.split("."):
        node = node[int(part)] if isinstance(node, list) else node[part]
    return node


def _with_uniform_module(effective):
    variant = copy.deepcopy(effective)
    variant["ring"]["entities"][2]["disturbance_kind"] = "uniform"
    return variant


def test_every_numeric_key_changes_what_the_engine_reads_or_is_refused():
    files = [load_scenario(str(path)).effective for path in SHIPPED]
    four_party = load_scenario(str(SCENARIOS / "network_four_party.yaml")).effective
    inert = set()
    for effective in files + [_with_uniform_module(four_party)]:
        reads = engine_reads(build_scenario(effective))
        for axis in numeric_axes(effective):
            value = _leaf(effective, axis)
            step = 1 if isinstance(value, int) else 0.1 * abs(value) + 0.01
            for bumped in (value + step, value - step):
                changed = copy.deepcopy(effective)
                harness._set_path(changed, axis, bumped)
                try:
                    point = build_scenario(changed)
                except ScenarioError:
                    continue
                if engine_reads(point) == reads:
                    inert.add(axis)
    # the wavelength is carried for reporting only; every other key is read
    assert inert == {"source.wavelength"}


def test_run_is_reproducible():
    sc = load_scenario(str(SCENARIOS / "paper_ideal.yaml"))
    r1, _ = run(sc, pulses=50_000)
    r2, _ = run(sc, pulses=50_000)
    assert r1.stats == r2.stats
    assert run_csv(r1) == run_csv(r2)


def test_ring_run_needs_partner():
    sc = load_scenario(str(SCENARIOS / "network_four_party.yaml"))
    report, _ = run(sc, pulses=20_000)  # partner from file
    assert report.stats.errors == 0
    eff = copy.deepcopy(sc.effective)
    eff["ring"]["partner"] = None
    no_partner = build_scenario(eff)
    with pytest.raises(ScenarioError, match="partner"):
        run(no_partner, pulses=1000)
    report2, _ = run(no_partner, pulses=20_000, partner="david")
    assert report2.stats.sifted_bits > 0


# ---------------------------------------------------------------- fringe


def test_fringe_reproduces_interference_law():
    sc = load_scenario(str(SCENARIOS / "paper_ideal.yaml"))
    rows = fringe(sc, points=360)
    assert len(rows) == 360
    for row in rows:
        want = math.cos(row["delta_phi"] / 2.0) ** 2
        assert abs(row["p1"] - want) < 1e-12
        assert abs(row["p1"] + row["p2"] - 1.0) < 1e-12
    text = fringe_csv(rows)
    assert text.startswith("# schema loopqkd.fringe.v1\n")


# ---------------------------------------------------------------- sweeps


def test_sweep_unknown_axis_lists_options():
    sc = load_scenario(str(SCENARIOS / "paper_ideal.yaml"))
    with pytest.raises(ScenarioError, match="source.mu"):
        sweep(sc, "loop.detuning", [1.0])


def test_sweep_link_length_decays_with_db_loss(tmp_path):
    path = write_scenario(
        tmp_path,
        "source: {mu: 0.05}\nloop: {loss_db_per_km: 2.0}\nprotocol: {pulses: 200000}\n",
    )
    sc = load_scenario(path)
    lengths = [0.0, 10_000.0, 25_000.0, 50_000.0]
    report = sweep(sc, "loop.upper_length", lengths)
    oracle_rates = []
    for L in lengths:
        eff = copy.deepcopy(sc.effective)
        eff["loop"]["upper_length"] = L
        oracle_rates.append(expected_for_scenario(build_scenario(eff)).raw_rate)
    assert all(b < a for a, b in zip(oracle_rates, oracle_rates[1:]))
    # once clicks are rare the rate follows the dB arithmetic exponentially
    for (L0, r0), (L1, r1) in zip(
        zip(lengths[1:], oracle_rates[1:]), zip(lengths[2:], oracle_rates[2:])
    ):
        want = 10 ** (-2.0 * ((L1 - L0) / 1000.0) / 10.0)
        assert r1 / r0 == pytest.approx(want, rel=2e-3)
    # Monte Carlo follows the oracle within sampling error
    for row, want in zip(report.rows, oracle_rates):
        p = want / sc.source.rep_rate
        sd_rate = sc.source.rep_rate * math.sqrt(p * (1 - p) / row["pulses"])
        assert abs(row["raw_rate_hz"] - want) < 3.5 * sd_rate + 1e-9


def test_sweep_eve_fraction_is_linear():
    base = load_scenario(str(SCENARIOS / "paper_ideal.yaml"))
    eff = copy.deepcopy(base.effective)
    eff["eve"]["strategy"] = "intercept_resend"
    armed = build_scenario(eff)
    report = sweep(armed, "eve.fraction", [0.0, 0.5, 1.0], pulses=400_000)
    q = [row["qber"] for row in report.rows]
    assert q[0] == 0.0
    assert q[1] == pytest.approx(0.125, abs=0.01)
    assert q[2] == pytest.approx(0.25, abs=0.01)


def test_sweep_names_the_grid_point_of_an_invalid_ring():
    sc = load_scenario(str(SCENARIOS / "network_four_party.yaml"))
    message = "sweep ring.coupler_ratio=1.5: coupler_ratio must be in (0, 1), got 1.5"
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        sweep(sc, "ring.coupler_ratio", [0.5, 1.5], pulses=1000)


def test_sweep_rounds_an_integer_axis():
    sc = load_scenario(str(SCENARIOS / "paper_ideal.yaml"))
    report = sweep(sc, "protocol.pulses", [1000.6])
    assert report.rows[0]["pulses"] == 1001


def test_sweep_rows_carry_per_point_digests():
    sc = load_scenario(str(SCENARIOS / "paper_ideal.yaml"))
    report = sweep(sc, "source.mu", [0.05, 0.1], pulses=10_000)
    assert report.rows[0]["digest"] != report.rows[1]["digest"]
    text = sweep_csv(report)
    assert text.splitlines()[0] == "# schema loopqkd.sweep.v1"
    assert len(text.splitlines()) == 4


# ---------------------------------------------------------------- calibrate


def test_calibrate_hits_paper_targets_exactly_in_expectation():
    sc = load_scenario(str(SCENARIOS / "calibration_base.yaml"))
    result = calibrate(sc, target_raw_hz=1200.0, target_qber=0.054)
    assert result.expected_raw_rate == pytest.approx(1200.0, rel=1e-6)
    assert result.expected_qber == pytest.approx(0.054, rel=1e-6)
    # 1200 Hz at 100 kHz repetition is a per-pulse sifted probability of 0.012
    assert result.expected_sifted_prob == pytest.approx(0.012, rel=1e-6)
    # the error target inverts to a visibility near 1 - 2*qber
    assert result.visibility == pytest.approx(0.892, abs=1e-3)
    assert result.transmittance < 1.0


def test_calibrate_round_trip_through_monte_carlo():
    sc = load_scenario(str(SCENARIOS / "calibration_base.yaml"))
    result = calibrate(sc, target_raw_hz=1200.0, target_qber=0.054)
    fitted = build_scenario(copy.deepcopy(result.effective))
    pulses = 2_000_000
    report, _ = run(fitted, pulses=pulses)
    p = 0.012
    sd_rate = sc.source.rep_rate * math.sqrt(p * (1 - p) / pulses)
    assert abs(report.stats.raw_rate - 1200.0) < 3 * sd_rate
    sd_q = math.sqrt(0.054 * 0.946 / (pulses * p))
    assert abs(report.stats.qber - 0.054) < 3 * sd_q


def test_calibrate_rejects_infeasible_targets():
    sc = load_scenario(str(SCENARIOS / "calibration_base.yaml"))
    with pytest.raises(ScenarioError, match="not achievable"):
        calibrate(sc, target_raw_hz=50_000.0, target_qber=0.054)
    with pytest.raises(ScenarioError, match="QBER.*not achievable"):
        calibrate(sc, target_raw_hz=1200.0, target_qber=0.0)  # darks forbid zero
    with pytest.raises(ScenarioError, match="QBER"):
        calibrate(sc, target_raw_hz=1200.0, target_qber=0.9)
    with pytest.raises(ScenarioError, match=re.escape("must be in [0, 0.5), got 0.5")):
        calibrate(sc, target_raw_hz=1200.0, target_qber=0.5)


def test_calibrate_reaches_up_to_visibility_zero():
    # the QBER ceiling is taken at a rotation of pi/4, where the visibility is 0
    sc = load_scenario(str(SCENARIOS / "calibration_base.yaml"))
    result = calibrate(sc, target_raw_hz=1200.0, target_qber=0.45)
    assert result.expected_qber == pytest.approx(0.45, rel=1e-6)
    assert result.visibility == pytest.approx(0.0995, abs=1e-4)


def test_calibrate_fails_where_pulses_meet_at_alice():
    # Alice's phase cancels, so every setting gives QBER 1/2: her two passes
    # of one pulse meet at delay 0, and at 250 kHz the next pulse's first
    # pass comes 83 ns after this pulse's second
    for section, key, value in (("loop", "delay_length", 0.0), ("source", "rep_rate", 250e3)):
        eff = copy.deepcopy(load_scenario(str(SCENARIOS / "calibration_base.yaml")).effective)
        eff[section][key] = value
        message = r"QBER 0.054 is not achievable .* reaches \[0\.5, 0\.5\]$"
        with pytest.raises(ScenarioError, match=message):
            calibrate(build_scenario(eff), target_raw_hz=1200.0, target_qber=0.054)


def reference_bisect(f, lo, hi, target, increasing, iters=80):
    """Plain bisection: every one of the iterations evaluates f."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) < target) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize(
    "f, lo, hi, target, increasing",
    [
        (math.exp, -3.0, 2.0, 1.7, True),
        (lambda x: -(x**3), -1.0, 1.0, 0.2, False),
        (math.log1p, 1e-9, 1.0, 0.3, True),
        (math.atan, 0.0, 1e-300, 3e-301, True),
        (lambda x: x, 1.0, 1.0 + 2.0**-40, 1.0 + 2.0**-41, True),
        (math.exp, 0.0, 1.0, 10.0, True),  # target above the bracket: lo runs to hi
        (math.exp, 1.0, 2.0, 0.5, True),  # target below it: hi runs to lo
        (math.exp, 2.0, 2.0, 1.0, True),  # an empty bracket
    ],
)
def test_bisect_stops_early_with_the_reference_result(f, lo, hi, target, increasing):
    calls = 0

    def counted(x):
        nonlocal calls
        calls += 1
        return f(x)

    assert harness._bisect(counted, lo, hi, target, increasing) == reference_bisect(
        f, lo, hi, target, increasing
    )
    assert calls < 80


def test_calibrate_builds_only_the_fitted_scenario(monkeypatch):
    sc = load_scenario(str(SCENARIOS / "calibration_base.yaml"))
    builds = checks = 0
    build, is_diattenuator = harness.build_scenario, JonesOperator.is_diattenuator

    def counted_build(raw):
        nonlocal builds
        builds += 1
        return build(raw)

    def counted_check(self, *args, **kwargs):
        nonlocal checks
        checks += 1
        return is_diattenuator(self, *args, **kwargs)

    monkeypatch.setattr(harness, "build_scenario", counted_build)
    monkeypatch.setattr(JonesOperator, "is_diattenuator", counted_check)
    calibrate(sc, target_raw_hz=1200.0, target_qber=0.054)
    assert (builds, checks) == (1, len(sc.loop.components)) == (1, 6)


def test_calibrate_counts_eve_in_the_qber_floor():
    # Eve on half the pulses puts the floor near 1/8, above the bench's 5.4 %
    eff = copy.deepcopy(load_scenario(str(SCENARIOS / "calibration_base.yaml")).effective)
    eff["eve"] = {"strategy": "intercept_resend", "fraction": 0.5}
    sc = build_scenario(eff)
    floor = r"QBER 0.054 is not achievable .* reaches \[0\.124735, 0\.5\]$"
    with pytest.raises(ScenarioError, match=floor):
        calibrate(sc, target_raw_hz=1200.0, target_qber=0.054)
    result = calibrate(sc, target_raw_hz=1200.0, target_qber=0.2)
    fitted = expected_for_scenario(build_scenario(result.effective))
    assert fitted.raw_rate == pytest.approx(1200.0, rel=1e-6)
    assert fitted.qber == pytest.approx(0.2, rel=1e-6)


def test_fitted_shipped_scenario_matches_calibration():
    shipped = load_scenario(str(SCENARIOS / "paper_calibrated.yaml"))
    exp = expected_for_scenario(shipped)
    assert exp.raw_rate == pytest.approx(1200.0, rel=1e-6)
    assert exp.qber == pytest.approx(0.054, rel=1e-6)
    assert fringe_coefficients(shipped.loop).visibility == pytest.approx(0.8916, abs=2e-4)


# ---------------------------------------------------------------- CSV


def test_csv_formats_nine_significant_digits():
    assert harness._fmt(0.123456789123) == "0.123456789"
    assert harness._fmt(1200.0) == "1200"
    assert harness._fmt(float("nan")) == "nan"
    assert harness._fmt(42) == "42"


def test_transcript_csv_round_trips_outcomes():
    sc = load_scenario(str(SCENARIOS / "paper_ideal.yaml"))
    report, transcript = run(sc, pulses=500, collect_records=True)
    out = io.StringIO()
    transcript_csv(transcript, out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "# schema loopqkd.transcript.v1"
    assert len(lines) == 502
    sifted_rows = [ln for ln in lines[2:] if ln.split(",")[7] == "1"]
    assert len(sifted_rows) == report.stats.sifted_bits

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopqkd import jones
from loopqkd.jones import IDENTITY, H_POL, JonesOperator, JonesState, backward, random_unitary
from loopqkd.loopmodel import (
    DEFAULT_GATE_WIDTH,
    DEFAULT_GROUP_INDEX,
    SPEED_OF_LIGHT,
    Component,
    ComponentKind,
    LoopConfig,
    fringe_coefficients,
    loop_fold,
    modulator_separation,
    standard_loop,
)


def amplitude_chain_oracle(config, phi_a, phi_b):
    """Brute-force (p1, p2): multiply out the amplitude chain component by
    component, independent of loop_fold()/fringe_coefficients()."""
    kappa = config.coupler_ratio
    t = math.sqrt(1.0 - kappa)
    r = 1j * math.sqrt(kappa)
    psi = config.source_pol.vector

    v = t * psi.copy()
    for c in config.components:
        v = math.sqrt(c.power_transmittance()) * (c.jones.m @ v)
    v_cw = np.exp(1j * phi_a) * v

    w = r * psi.copy()
    for c in reversed(config.components):
        w = math.sqrt(c.power_transmittance()) * (c.jones.m.T @ w)
    v_ccw = np.exp(1j * phi_b) * w

    out1 = t * v_ccw + r * v_cw
    out2 = r * v_ccw + t * v_cw
    return float(np.vdot(out1, out1).real), float(np.vdot(out2, out2).real)


def replace_jones(config, index, op):
    comps = list(config.components)
    comps[index] = dataclasses.replace(comps[index], jones=op)
    return LoopConfig(tuple(comps), config.coupler_ratio, config.source_pol)


def probs(cfg, phi_a, phi_b=0.0):
    """(p1, p2) of a loop at modulator phases phi_a (Alice) and phi_b (Bob)."""
    return fringe_coefficients(cfg).probs(phi_a - phi_b)


def own_paths(cfg):
    """Clockwise and counterclockwise path operators at the loop's own delay."""
    return loop_fold(cfg).paths(cfg.components[cfg.delay_index].jones.m)


# ---------------------------------------------------------------- loop fold


def test_accumulate_identity_lossless():
    cfg = standard_loop(200.0, 200.0, 800.0)
    for path in own_paths(cfg):
        assert np.max(np.abs(path - np.eye(2))) < 1e-15
    assert math.sqrt(loop_fold(cfg).power(1.0)) == pytest.approx(1.0, abs=1e-15)


def test_accumulate_db_arithmetic():
    cfg = standard_loop(200.0, 0.0, 0.0)
    comps = [
        dataclasses.replace(c, loss_db_per_km=0.2 if c.label == "upper-link" else 0.0)
        for c in cfg.components
    ]
    cfg = LoopConfig(tuple(comps), cfg.coupler_ratio, cfg.source_pol)
    assert loop_fold(cfg).power(1.0) == pytest.approx(10 ** (-0.04 / 10.0), rel=1e-12)


def test_accumulate_transmittance_is_product_of_component_powers():
    rng = np.random.default_rng(7)
    cfg = standard_loop(150.0, 300.0, 500.0, loss_db_per_km=1.3, attenuator_transmittance=0.37)
    expected = 1.0
    for c in cfg.components:
        expected *= c.power_transmittance()
    assert loop_fold(cfg).power(0.37) == pytest.approx(expected, abs=1e-12)


def test_accumulate_ccw_is_backward_of_cw():
    rng = np.random.default_rng(8)
    for _ in range(20):
        u = random_unitary(rng)
        cfg = standard_loop(delay_jones=u)
        cw, ccw = own_paths(cfg)
        assert np.max(np.abs(ccw - cw.T)) < 1e-12
        assert np.max(np.abs(ccw - backward(JonesOperator(cw)).m)) < 1e-12


unitaries = st.integers(0, 2**32 - 1).map(lambda seed: random_unitary(np.random.default_rng(seed)))
pdl_elements = st.builds(
    lambda t_max, ratio, theta: Component(
        ComponentKind.PDL_ELEMENT,
        label="pdl",
        jones=jones.diattenuator(t_max, t_max * ratio, theta),
    ),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, math.pi),
)
sources = (
    st.tuples(*[st.floats(-1.0, 1.0)] * 4)
    .filter(lambda v: sum(x * x for x in v) > 1e-3)
    .map(lambda v: np.array(v) / math.sqrt(sum(x * x for x in v)))
    .map(lambda v: JonesState(complex(v[0], v[1]), complex(v[2], v[3])))
)
lengths = st.floats(0.0, 5000.0)
loop_kwargs = st.fixed_dictionaries(
    {
        "upper_length": lengths,
        "lower_length": lengths,
        "delay_length": lengths,
        "loss_db_per_km": st.floats(0.0, 5.0),
        "coupler_ratio": st.floats(1e-6, 1.0 - 1e-6),
        "attenuator_transmittance": st.floats(1e-9, 1.0),
        "source_pol": sources,
        **dict.fromkeys(
            ("upper_jones", "lower_jones", "delay_jones", "pc_coupler", "pc_bob", "pc_alice"),
            unitaries,
        ),
        "extra_components": st.lists(pdl_elements, max_size=1).map(tuple),
    }
)


def coefficients(fc):
    return (fc.power_ccw, fc.power_cw, fc.cross, fc.kappa)


def whole_loop_coefficients(cfg):
    """Coefficients from one left fold over all components in each direction."""
    comps, psi = cfg.components, cfg.source_pol.vector
    amplitude = math.sqrt(math.prod((c.power_transmittance() for c in comps), start=1.0))
    v_cw = amplitude * (jones.compose([c.jones for c in comps]).m @ psi)
    v_ccw = amplitude * (jones.compose([backward(c.jones) for c in reversed(comps)]).m @ psi)
    powers = float(np.vdot(v_ccw, v_ccw).real), float(np.vdot(v_cw, v_cw).real)
    return (*powers, complex(np.vdot(v_ccw, v_cw)), cfg.coupler_ratio)


@settings(max_examples=200, deadline=None)
@given(loop_kwargs, st.floats(1e-9, 1.0), st.floats(-math.pi, math.pi))
def test_fold_equals_the_rebuilt_loop_bit_for_bit(kwargs, t, angle):
    folded = loop_fold(standard_loop(**kwargs)).at(t, jones.rotation(angle))
    kwargs.update(attenuator_transmittance=t, delay_jones=jones.rotator(angle))
    rebuilt = standard_loop(**kwargs)
    assert coefficients(folded) == coefficients(fringe_coefficients(rebuilt))
    assert coefficients(folded) == whole_loop_coefficients(rebuilt)


@settings(max_examples=100, deadline=None)
@given(loop_kwargs, st.integers(0, 2**32 - 1), st.floats(1e-9, 1.0), unitaries)
def test_fold_equals_the_rebuilt_loop_in_any_component_order(kwargs, order, t, delay):
    comps = list(standard_loop(**kwargs).components)
    comps = [comps[i] for i in np.random.default_rng(order).permutation(len(comps))]
    cfg = LoopConfig(tuple(comps), kwargs["coupler_ratio"], kwargs["source_pol"])
    comps[cfg.attenuator_index] = dataclasses.replace(comps[cfg.attenuator_index], transmittance=t)
    comps[cfg.delay_index] = dataclasses.replace(comps[cfg.delay_index], jones=delay)
    rebuilt = LoopConfig(tuple(comps), cfg.coupler_ratio, cfg.source_pol)
    folded = coefficients(loop_fold(cfg).at(t, delay.m))
    assert folded == coefficients(fringe_coefficients(rebuilt)) == whole_loop_coefficients(rebuilt)


def test_accumulate_rejects_invalid_config():
    cfg = standard_loop()
    comps = tuple(c for c in cfg.components if c.kind is not ComponentKind.ATTENUATOR)
    with pytest.raises(ValueError, match="attenuator"):
        loop_fold(LoopConfig(comps, 0.5, H_POL))
    with pytest.raises(ValueError, match="coupler_ratio"):
        loop_fold(LoopConfig(cfg.components, 1.5, H_POL))
    with pytest.raises(ValueError, match="owner"):
        Component(ComponentKind.PHASE_MODULATOR, owner="carol")


# ---------------------------------------------------------------- detection


def test_detection_ideal_ports():
    cfg = standard_loop()
    assert probs(cfg, 0.0) == pytest.approx((1.0, 0.0), abs=1e-15)
    assert probs(cfg, math.pi) == pytest.approx((0.0, 1.0), abs=1e-15)
    assert probs(cfg, math.pi / 2) == pytest.approx((0.5, 0.5), abs=1e-15)


def test_detection_interference_law_on_grid():
    cfg = standard_loop()
    for delta in np.linspace(0.0, 2.0 * math.pi, 360):
        p1, p2 = probs(cfg, delta)
        assert abs(p1 - math.cos(delta / 2.0) ** 2) < 1e-12
        assert abs(p1 + p2 - 1.0) < 1e-12


def test_detection_depends_only_on_phase_difference():
    rng = np.random.default_rng(9)
    cfg = standard_loop(delay_jones=random_unitary(rng), upper_jones=random_unitary(rng))
    for _ in range(50):
        a, b, shift = rng.uniform(0.0, 2.0 * math.pi, size=3)
        # the model sees only a - b; the full chain sees both absolute phases
        p = probs(cfg, a, b)
        q = amplitude_chain_oracle(cfg, a + shift, b + shift)
        assert p == pytest.approx(q, abs=1e-12)


def test_detection_matches_amplitude_chain_oracle():
    rng = np.random.default_rng(10)
    for _ in range(50):
        cfg = standard_loop(
            upper_length=rng.uniform(10, 500),
            lower_length=rng.uniform(10, 500),
            delay_length=rng.uniform(100, 1000),
            loss_db_per_km=rng.uniform(0.0, 3.0),
            attenuator_transmittance=rng.uniform(0.2, 1.0),
            coupler_ratio=rng.uniform(0.2, 0.8),
            upper_jones=random_unitary(rng),
            lower_jones=random_unitary(rng),
            delay_jones=random_unitary(rng),
        )
        phi_a, phi_b = rng.uniform(0.0, 2.0 * math.pi, size=2)
        got = probs(cfg, phi_a, phi_b)
        want = amplitude_chain_oracle(cfg, phi_a, phi_b)
        assert got == pytest.approx(want, abs=1e-12)


def test_detection_rejects_unnormalized_source():
    with pytest.raises(ValueError, match="normalized"):
        fringe_coefficients(standard_loop(source_pol=JonesState(1.0, 1.0)))


def test_phase_drift_immunity():
    rng = np.random.default_rng(11)
    cfg = standard_loop(
        upper_jones=random_unitary(rng),
        delay_jones=random_unitary(rng),
        attenuator_transmittance=0.6,
    )
    base = probs(cfg, 0.7, 0.3)
    for _ in range(200):
        idx = int(rng.integers(0, len(cfg.components)))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        drifted = replace_jones(
            cfg, idx, JonesOperator(np.exp(1j * theta) * cfg.components[idx].jones.m)
        )
        got = probs(drifted, 0.7, 0.3)
        assert abs(got[0] - base[0]) < 1e-12
        assert abs(got[1] - base[1]) < 1e-12


def test_lossless_unitarity_any_coupler_ratio():
    rng = np.random.default_rng(12)
    for _ in range(20):
        cfg = standard_loop(
            coupler_ratio=rng.uniform(0.05, 0.95),
            upper_jones=random_unitary(rng),
            lower_jones=random_unitary(rng),
        )
        p1, p2 = probs(cfg, *rng.uniform(0, 2 * math.pi, size=2))
        assert p1 + p2 == pytest.approx(1.0, abs=1e-12)


def test_symmetric_birefringence_keeps_ideal_law():
    rng = np.random.default_rng(13)
    for _ in range(20):
        u = random_unitary(rng)
        sym = JonesOperator(u.m.T @ u.m)  # symmetric unitary
        cfg = standard_loop(delay_jones=sym)
        for delta in np.linspace(0.0, 2.0 * math.pi, 24):
            p1, _ = probs(cfg, delta)
            assert abs(p1 - math.cos(delta / 2.0) ** 2) < 1e-10


def test_loss_scales_total_probability_linearly():
    cfg_full = standard_loop(attenuator_transmittance=0.8)
    cfg_half = standard_loop(attenuator_transmittance=0.4)
    for delta in (0.0, 0.9, 2.5):
        p1f, p2f = probs(cfg_full, delta)
        p1h, p2h = probs(cfg_half, delta)
        assert p1h + p2h == pytest.approx(0.5 * (p1f + p2f), abs=1e-12)


def test_fringe_coefficients_array_evaluation():
    cfg = standard_loop()
    fc = fringe_coefficients(cfg)
    deltas = np.linspace(0.0, 2.0 * math.pi, 100)
    p1, p2 = fc.probs(deltas)
    for d, a, b in zip(deltas, p1, p2):
        pa, pb = probs(cfg, d)
        assert a == pytest.approx(pa, abs=1e-14)
        assert b == pytest.approx(pb, abs=1e-14)


# ---------------------------------------------------------------- timing


def test_timing_paper_geometry_staggers_pulses():
    cfg = standard_loop(200.0, 200.0, 800.0)
    separation = modulator_separation(cfg, "alice")
    assert separation >= DEFAULT_GATE_WIDTH
    expected = 800.0 * DEFAULT_GROUP_INDEX / SPEED_OF_LIGHT
    assert separation == pytest.approx(expected, rel=1e-12)
    assert separation == pytest.approx(3.92e-6, rel=1e-2)


def test_timing_zero_delay_conflicts():
    cfg = standard_loop(200.0, 200.0, 0.0)
    separation = modulator_separation(cfg, "alice")
    assert separation < DEFAULT_GATE_WIDTH
    assert separation == pytest.approx(0.0, abs=1e-15)


def test_timing_stagger_independent_of_link_length():
    short = modulator_separation(standard_loop(200.0, 200.0, 800.0), "alice")
    long = modulator_separation(standard_loop(10_000.0, 10_000.0, 800.0), "alice")
    assert long >= DEFAULT_GATE_WIDTH
    assert long == pytest.approx(short, rel=1e-12)


# ---------------------------------------------------------------- PDL


def test_pdl_penalty_ideal():
    assert fringe_coefficients(standard_loop()).visibility == pytest.approx(1.0, abs=1e-12)


def test_pdl_penalty_loss_orthogonal_to_populated_axis():
    pdl = Component(ComponentKind.PDL_ELEMENT, label="pdl", jones=jones.diattenuator(1.0, 0.0))
    cfg = standard_loop(extra_components=(pdl,))
    assert fringe_coefficients(cfg).visibility == pytest.approx(1.0, abs=1e-12)


def test_pdl_penalty_matches_amplitude_chain():
    rng = np.random.default_rng(14)
    for _ in range(30):
        pdl = Component(
            ComponentKind.PDL_ELEMENT,
            label="pdl",
            jones=jones.diattenuator(
                rng.uniform(0.5, 1.0), rng.uniform(0.1, 0.5), rng.uniform(0, math.pi)
            ),
        )
        cfg = standard_loop(
            upper_jones=random_unitary(rng),
            delay_jones=random_unitary(rng),
            extra_components=(pdl,),
        )
        # oracle: explicit chains without the coupler factors
        psi = cfg.source_pol.vector
        v = psi.copy()
        for c in cfg.components:
            v = math.sqrt(c.power_transmittance()) * (c.jones.m @ v)
        w = psi.copy()
        for c in reversed(cfg.components):
            w = math.sqrt(c.power_transmittance()) * (c.jones.m.T @ w)
        want = abs(np.vdot(w, v)) / math.sqrt(
            float(np.vdot(v, v).real) * float(np.vdot(w, w).real)
        )
        assert fringe_coefficients(cfg).visibility == pytest.approx(want, abs=1e-12)


def test_pdl_penalty_zero_power_rejected():
    pdl = Component(ComponentKind.PDL_ELEMENT, label="pdl", jones=jones.diattenuator(0.0, 0.0))
    cfg = standard_loop(extra_components=(pdl,))
    with pytest.raises(ValueError, match="single-path power"):
        fringe_coefficients(cfg).visibility


# ---------------------------------------------------------------- types


def test_component_validation_messages():
    with pytest.raises(ValueError, match="length"):
        Component(ComponentKind.FIBER, label="f", length=-1.0)
    with pytest.raises(ValueError, match="transmittance"):
        Component(ComponentKind.ATTENUATOR, label="a", transmittance=0.0)
    with pytest.raises(ValueError, match="singular value"):
        Component(
            ComponentKind.PDL_ELEMENT, label="p", jones=JonesOperator(np.diag([2.0, 1.0]))
        )


def test_loop_indexes_phase_modulators():
    cfg = standard_loop()
    assert [c.owner for c in cfg.components].count("alice") == 1
    extra_bob = Component(ComponentKind.PHASE_MODULATOR, label="PM-bob-2", owner="bob")
    with pytest.raises(ValueError, match="exactly one phase modulator owned by bob, got 2"):
        standard_loop(extra_components=(extra_bob,))

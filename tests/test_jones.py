import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopqkd import jones
from loopqkd.jones import (
    H_POL,
    IDENTITY,
    JonesOperator,
    JonesState,
    PcSetting,
    backward,
    compose,
    hwp,
    optimize_pc,
    pc_matrix,
    qwp,
    random_unitary,
    rotator,
    visibility,
)

angles = st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True)


def unitary_from_angles(phi, a, delta, b):
    """General U(2) element, built from raw numpy (independent of jones helpers)."""
    ra = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    rb = np.array([[math.cos(b), -math.sin(b)], [math.sin(b), math.cos(b)]])
    d = np.diag([1.0, np.exp(1j * delta)])
    return JonesOperator(np.exp(1j * phi) * (ra @ d @ rb))


def conj_product_oracle(u):
    """conj(U) @ U by explicit scalar complex arithmetic."""
    m = [[0j, 0j], [0j, 0j]]
    for i in range(2):
        for k in range(2):
            acc = 0j
            for j in range(2):
                acc += complex(u[i, j]).conjugate() * complex(u[j, k])
            m[i][k] = acc
    return m


def cross_term_oracle(psi, u):
    """|psi^dag conj(U) U psi| by explicit scalar complex arithmetic."""
    m = conj_product_oracle(u)
    acc = 0j
    for i in range(2):
        for k in range(2):
            acc += complex(psi[i]).conjugate() * m[i][k] * complex(psi[k])
    return abs(acc)


# ---------------------------------------------------------------- compose


def test_compose_identity_and_singleton():
    assert np.allclose(compose([IDENTITY, IDENTITY]).m, np.eye(2), atol=1e-15)
    rng = np.random.default_rng(1)
    a = random_unitary(rng)
    assert np.array_equal(compose([a]).m, a.m)


def test_compose_pair_matches_direct_multiplication():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b = random_unitary(rng), random_unitary(rng)
        direct = b.m @ a.m  # first element acts first
        assert np.max(np.abs(compose([a, b]).m - direct)) < 1e-12


def test_compose_empty_rejected():
    with pytest.raises(ValueError):
        compose([])


@settings(max_examples=100, deadline=None)
@given(angles, angles, angles, angles, angles, angles, angles, angles, angles)
def test_compose_associative(p1, a1, d1, p2, a2, d2, p3, a3, d3):
    a = unitary_from_angles(p1, a1, d1, 0.0)
    b = unitary_from_angles(p2, a2, d2, 0.0)
    c = unitary_from_angles(p3, a3, d3, 0.0)
    lhs = compose([a, b, c]).m
    rhs = compose([compose([a, b]), c]).m
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# ---------------------------------------------------------------- backward


def test_backward_identity_and_retarder_symmetric():
    assert np.array_equal(backward(IDENTITY).m, np.eye(2))
    d = JonesOperator(np.diag([1.0, np.exp(1j * 0.7)]))
    assert np.array_equal(backward(d).m, d.m)


def test_backward_is_transpose_and_involution():
    rng = np.random.default_rng(3)
    for _ in range(100):
        u = random_unitary(rng)
        assert np.array_equal(backward(u).m, u.m.T)
        assert np.array_equal(backward(backward(u)).m, u.m)


@settings(max_examples=100, deadline=None)
@given(angles, angles, angles, angles, angles, angles)
def test_backward_anti_homomorphism(p1, a1, d1, p2, a2, d2):
    a = unitary_from_angles(p1, a1, d1, 0.0)
    b = unitary_from_angles(p2, a2, d2, 0.0)
    lhs = backward(compose([a, b])).m
    rhs = compose([backward(b), backward(a)]).m
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# ---------------------------------------------------------------- visibility


def test_visibility_identical_paths():
    assert visibility(H_POL, IDENTITY, IDENTITY) == pytest.approx(1.0, abs=1e-15)


def test_visibility_orthogonal_component_unpopulated():
    u_ccw = JonesOperator(np.diag([1.0, -1.0]))
    assert visibility(H_POL, IDENTITY, u_ccw) == pytest.approx(1.0, abs=1e-15)


def test_visibility_rejects_unnormalized_input():
    with pytest.raises(ValueError):
        visibility(JonesState(1.0, 1.0), IDENTITY, IDENTITY)


def test_visibility_matches_brute_force_cross_term():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        u = random_unitary(rng)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        psi = JonesState(complex(v[0]), complex(v[1]))
        got = visibility(psi, u, backward(u))
        want = cross_term_oracle(v, u.m)
        assert got == pytest.approx(want, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(angles, angles, angles)
def test_visibility_one_for_symmetric_unitary(phi, a, delta):
    u = unitary_from_angles(phi, a, delta, -a)  # R(a) D R(-a) is symmetric
    assert np.max(np.abs(u.m - u.m.T)) < 1e-12
    assert abs(visibility(H_POL, u, backward(u)) - 1.0) < 1e-10


@settings(max_examples=100, deadline=None)
@given(angles, angles, angles, angles)
def test_visibility_invariant_under_global_phase(a, delta, b, theta):
    u = unitary_from_angles(0.0, a, delta, b)
    u_ph = JonesOperator(np.exp(1j * theta) * u.m)
    v0 = visibility(H_POL, u, backward(u))
    assert visibility(H_POL, u_ph, backward(u)) == pytest.approx(v0, abs=1e-12)
    assert visibility(H_POL, u, backward(u_ph)) == pytest.approx(v0, abs=1e-12)


# ---------------------------------------------------------------- pc_matrix


def test_pc_matrix_zero_setting_matches_direct_product():
    direct = qwp(0.0).m @ hwp(0.0).m @ qwp(0.0).m
    got = pc_matrix(PcSetting(0.0, 0.0, 0.0)).m
    assert np.max(np.abs(got - direct)) < 1e-15
    assert pc_matrix(PcSetting(0.0, 0.0, 0.0)).is_unitary(1e-12)


@settings(max_examples=200, deadline=None)
@given(angles, angles, angles)
def test_pc_matrix_always_unitary(t1, t2, t3):
    assert pc_matrix(PcSetting(t1, t2, t3)).is_unitary(1e-12)


def test_half_wave_sweep_covers_all_linear_azimuths():
    # HWP(theta) maps horizontal input to a linear state at azimuth 2*theta,
    # so a half-turn sweep visits every azimuth.
    thetas = np.linspace(0.0, math.pi, 90, endpoint=False)
    azimuths = []
    for th in thetas:
        out = hwp(th).apply(H_POL)
        # linear state: no circular component
        assert abs((np.conj(out.e_x) * out.e_y).imag) < 1e-12
        azimuths.append(math.atan2(out.e_y.real, out.e_x.real) % math.pi)
        expected = (2.0 * th) % math.pi
        assert min(abs(azimuths[-1] - expected), abs(azimuths[-1] - expected - math.pi),
                   abs(azimuths[-1] - expected + math.pi)) < 1e-9
    gaps = np.diff(sorted(azimuths))
    assert np.max(gaps) < 2.2 * math.pi / 90


def test_pc_matrix_product_is_periodic_stack():
    rng = np.random.default_rng(5)
    for _ in range(20):
        t1, t2, t3 = rng.uniform(0, 2 * math.pi, size=3)
        direct = qwp(t1).m @ hwp(t2).m @ qwp(t3).m
        assert np.max(np.abs(pc_matrix(PcSetting(t1, t2, t3)).m - direct)) < 1e-13


# ---------------------------------------------------------------- optimize_pc


def test_optimize_pc_flat_optimum():
    objective = lambda s: visibility(H_POL, IDENTITY, IDENTITY)
    best = optimize_pc(objective, PcSetting(1.0, 1.0, 1.0), tol=1e-9)
    assert objective(best) == pytest.approx(1.0, abs=1e-12)


def test_optimize_pc_quadratic_analytic_optimum():
    def objective(s: PcSetting) -> float:
        return -((s.theta1 - 1.0) ** 2 + (s.theta2 - 2.0) ** 2 + (s.theta3 - 3.0) ** 2)

    best = optimize_pc(objective, PcSetting(0.5, 0.5, 0.5), tol=1e-12)
    assert best.theta1 == pytest.approx(1.0, abs=1e-4)
    assert best.theta2 == pytest.approx(2.0, abs=1e-4)
    assert best.theta3 == pytest.approx(3.0, abs=1e-4)


def test_optimize_pc_rejects_non_finite_objective():
    with pytest.raises(ValueError):
        optimize_pc(lambda s: math.nan, PcSetting(0, 0, 0), tol=1e-6)


def _qhq_stack(t1, t2, t3):
    """Vectorized QWP(t1) @ HWP(t2) @ QWP(t3) over broadcasting angle grids."""

    def wp_stack(delta, th):
        c, s = np.cos(th), np.sin(th)
        e = np.exp(1j * delta)
        m = np.empty(np.broadcast(c, s).shape + (2, 2), dtype=complex)
        m[..., 0, 0] = c * c + e * s * s
        m[..., 0, 1] = (1.0 - e) * c * s
        m[..., 1, 0] = (1.0 - e) * c * s
        m[..., 1, 1] = s * s + e * c * c
        return m

    q1 = wp_stack(math.pi / 2, t1)
    h2 = wp_stack(math.pi, t2)
    q3 = wp_stack(math.pi / 2, t3)
    return np.einsum("...ij,...jk,...kl->...il", q1, h2, q3)


def test_optimize_pc_matches_dense_grid_on_birefringent_loop():
    rng = np.random.default_rng(11)
    u_fixed = random_unitary(rng)

    def objective(s: PcSetting) -> float:
        total = compose([pc_matrix(s), u_fixed])
        return visibility(H_POL, total, backward(total))

    best = optimize_pc(objective, PcSetting(0.0, 0.0, 0.0), tol=1e-10)
    best_val = objective(best)

    n = 64
    g = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    p = _qhq_stack(g[:, None, None], g[None, :, None], g[None, None, :])
    w = np.einsum("ij,...jk->...ik", u_fixed.m, p)
    cross = np.einsum("...ji,...jk->...ik", np.conj(w), w)[..., 0, 0]
    grid_best = float(np.max(np.abs(cross)))

    assert best_val >= grid_best - 1e-3
    assert abs(best_val - grid_best) < 1e-3
    assert best_val <= 1.0 + 1e-12


# ---------------------------------------------------------------- misc types


def test_pc_setting_reduces_angles():
    s = PcSetting(-1.0, 7.0, 2.0 * math.pi)
    assert 0.0 <= s.theta1 < 2.0 * math.pi
    assert 0.0 <= s.theta2 < 2.0 * math.pi
    assert s.theta3 == 0.0


def test_jones_state_normalization():
    s = JonesState(3.0, 4.0j)
    assert s.norm_sq() == pytest.approx(25.0)
    assert not s.is_normalized()


def test_operator_validation_and_svd():
    with pytest.raises(ValueError):
        JonesOperator(np.eye(3))
    d = jones.diattenuator(1.0, 0.5, 0.3)
    assert d.is_diattenuator()
    s = d.singular_values()
    assert s == pytest.approx([1.0, 0.5])
    with pytest.raises(ValueError):
        jones.diattenuator(0.5, 1.0)


def test_rotator_is_antisymmetric_unitary():
    r = rotator(0.4)
    assert r.is_unitary(1e-12)
    assert np.max(np.abs(r.m + r.m.T - 2 * np.diag(np.diag(r.m)))) < 1e-12

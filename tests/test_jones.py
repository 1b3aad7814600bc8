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
    backward,
    compose,
    random_unitary,
    rotator,
)
from loopqkd.loopmodel import fringe_coefficients, standard_loop

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
#
# A loop whose only non-identity element is the upper link ``u`` has paths
# u (clockwise) and u^T (counterclockwise), so its fringe visibility is the
# reciprocity cross term |psi^dag conj(u) u psi|.


def loop_visibility(u=IDENTITY, psi=H_POL, **elements):
    return fringe_coefficients(standard_loop(upper_jones=u, source_pol=psi, **elements)).visibility


def test_visibility_identical_paths():
    assert loop_visibility() == pytest.approx(1.0, abs=1e-15)


def test_visibility_orthogonal_component_unpopulated():
    # a rotator is antisymmetric, so the paths differ (u^T = u^-1), but
    # conj(u) u = R(2a) only shifts the phase of a circular input
    circular = JonesState(1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0))
    assert loop_visibility(rotator(0.4), circular) == pytest.approx(1.0, abs=1e-15)


def test_visibility_matches_brute_force_cross_term():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        u = random_unitary(rng)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        psi = JonesState(complex(v[0]), complex(v[1]))
        got = loop_visibility(u, psi)
        want = cross_term_oracle(v, u.m)
        assert got == pytest.approx(want, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(angles, angles, angles)
def test_visibility_one_for_symmetric_unitary(phi, a, delta):
    u = unitary_from_angles(phi, a, delta, -a)  # R(a) D R(-a) is symmetric
    assert np.max(np.abs(u.m - u.m.T)) < 1e-12
    assert abs(loop_visibility(u) - 1.0) < 1e-10


@settings(max_examples=100, deadline=None)
@given(angles, angles, angles, angles)
def test_visibility_invariant_under_global_phase(a, delta, b, theta):
    u = unitary_from_angles(0.0, a, delta, b)
    phase = JonesOperator(np.exp(1j * theta) * np.eye(2))
    v0 = loop_visibility(u)
    assert loop_visibility(compose([u, phase])) == pytest.approx(v0, abs=1e-12)
    assert loop_visibility(u, delay_jones=phase) == pytest.approx(v0, abs=1e-12)


# ---------------------------------------------------------------- misc types


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
    assert np.max(np.abs(r.m.conj().T @ r.m - np.eye(2))) < 1e-12
    assert np.max(np.abs(r.m + r.m.T - 2 * np.diag(np.diag(r.m)))) < 1e-12

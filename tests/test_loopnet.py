import math

import numpy as np
import pytest

from loopqkd.bb84 import PHASE_CODING, SessionStats
from loopqkd.harness import oracle_z_scores
from loopqkd.loopmodel import fringe_coefficients, standard_loop
from loopqkd.loopnet import (
    DisturbanceKind,
    DisturbanceVerdict,
    Entity,
    RingConfig,
    detect_disturbance,
    noise_taps,
    select_partner,
)
from loopqkd.quantumchannel import DetectorParams, SourceParams, expected_session
from loopqkd.session import SessionParams, run_session, tap_quadrature


def four_party_ring(**entity_kwargs):
    names = ("alice", "david", "fox", "george")
    entities = tuple(Entity(id=n, **entity_kwargs.get(n, {})) for n in names)
    return RingConfig(entities=entities, link_lengths=(100.0,) * 5, delay_length=800.0)


def ring_session(ring, partner, params):
    """One session between Bob and ``partner``, flattened and tapped as ``harness.run`` does."""
    return run_session(select_partner(ring, partner), params, noise_taps(ring, partner))


def ring_oracle(ring, partner, src):
    """The closed-form expectation of ``ring_session``'s session with ideal detectors."""
    loop = select_partner(ring, partner)
    return expected_session(
        fringe_coefficients(loop),
        PHASE_CODING.through(loop, 1.0 / src.rep_rate),
        src,
        DetectorParams(),
        noise=tap_quadrature(noise_taps(ring, partner)),
    )


def stats_without_rate(s: SessionStats):
    return (s.pulses_sent, s.raw_clicks, s.sifted_bits, s.errors, s.disclosed_bits)


# ---------------------------------------------------------------- flattening


def test_single_entity_ring_equals_two_party_loop():
    ring = RingConfig(entities=(Entity(id="alice"),), link_lengths=(200.0, 200.0))
    flat = select_partner(ring, "alice")
    two_party = standard_loop(upper_length=200.0, lower_length=200.0, delay_length=800.0)
    params = SessionParams(pulses=40_000, seed=71, source=SourceParams(mu=0.2))
    ring_stats, _ = ring_session(ring, "alice", params)
    direct_stats, _ = run_session(two_party, params)
    assert ring_stats == direct_stats
    assert fringe_coefficients(flat) == fringe_coefficients(two_party)


def test_each_partner_sees_ideal_interference():
    ring = four_party_ring()
    for name in ring.entity_ids():
        fc = fringe_coefficients(select_partner(ring, name))
        for delta in np.linspace(0.0, 2.0 * math.pi, 24):
            p1, p2 = fc.probs(delta)
            assert abs(p1 - math.cos(delta / 2.0) ** 2) < 1e-12
            assert abs(p1 + p2 - 1.0) < 1e-12


def test_partner_choice_moves_modulator_only():
    ring = four_party_ring()
    flat_david = select_partner(ring, "david")
    flat_fox = select_partner(ring, "fox")
    kinds_david = [c.kind for c in flat_david.components]
    kinds_fox = [c.kind for c in flat_fox.components]
    assert sorted(k.value for k in kinds_david) == sorted(k.value for k in kinds_fox)
    owners_david = [c.owner for c in flat_david.components]
    owners_fox = [c.owner for c in flat_fox.components]
    assert owners_david.index("alice") != owners_fox.index("alice")
    fc_david = fringe_coefficients(flat_david)
    fc_fox = fringe_coefficients(flat_fox)
    assert fc_david.cross == pytest.approx(fc_fox.cross, abs=1e-15)
    assert fc_david.power_cw == pytest.approx(fc_fox.power_cw, abs=1e-15)


def test_unknown_partner_rejected():
    ring = four_party_ring()
    with pytest.raises(ValueError, match="unknown entity"):
        select_partner(ring, "mallory")


def test_ring_validation():
    with pytest.raises(ValueError, match="link fibers"):
        RingConfig(entities=(Entity(id="a"),), link_lengths=(100.0,))
    with pytest.raises(ValueError, match="duplicate"):
        RingConfig(
            entities=(Entity(id="a"), Entity(id="a")), link_lengths=(1.0, 1.0, 1.0)
        )


def test_entity_order_permutation_preserves_fringe():
    rng = np.random.default_rng(73)
    losses = {n: rng.uniform(0.5, 1.0) for n in ("alice", "david", "fox", "george")}
    ring_a = four_party_ring(**{n: {"insertion_transmittance": losses[n]} for n in losses})
    names_b = ("david", "alice", "george", "fox")
    ring_b = RingConfig(
        entities=tuple(Entity(id=n, insertion_transmittance=losses[n]) for n in names_b),
        link_lengths=(100.0,) * 5,
        delay_length=800.0,
    )
    # identical total path; the scalar phase observable depends only on delta
    fa = fringe_coefficients(select_partner(ring_a, "fox"))
    fb = fringe_coefficients(select_partner(ring_b, "fox"))
    deltas = np.linspace(0, 2 * math.pi, 50)
    pa1, pa2 = fa.probs(deltas)
    pb1, pb2 = fb.probs(deltas)
    assert pa1 + pa2 == pytest.approx(pb1 + pb2, abs=1e-12)


def test_insertion_loss_scales_total_probability():
    ring = four_party_ring(david={"insertion_transmittance": 0.8})
    flat = select_partner(ring, "alice")
    p1, p2 = fringe_coefficients(flat).probs(0.3)
    base = four_party_ring()
    q1, q2 = fringe_coefficients(select_partner(base, "alice")).probs(0.3)
    assert p1 + p2 == pytest.approx(0.8 * (q1 + q2), abs=1e-12)


# ---------------------------------------------------------------- sessions


def test_quiet_ring_session_is_error_free():
    ring = four_party_ring()
    stats, _ = ring_session(
        ring, "david", SessionParams(pulses=100_000, seed=79, source=SourceParams(mu=0.2))
    )
    assert stats.errors == 0
    assert detect_disturbance(stats) is DisturbanceVerdict.CLEAN


def test_gaussian_disturbance_raises_qber():
    sigma = math.pi / 2.0
    ring = four_party_ring(fox={"disturbance_sigma": sigma})
    assert len(noise_taps(ring, "david")) == 1
    assert noise_taps(ring, "fox") == ()  # the partner's own module never disturbs
    src = SourceParams(mu=0.1)
    stats, _ = ring_session(ring, "david", SessionParams(pulses=400_000, seed=83, source=src))
    want = ring_oracle(ring, "david", src)
    # weak pulses: near (1 - E[cos nu]) / 2 for a differential phase of variance 2 sigma^2
    assert want.qber == pytest.approx(0.5 * (1.0 - math.exp(-(sigma**2))), abs=2e-3)
    assert all(abs(z) < 3.0 for z in oracle_z_scores(stats, want))


def test_small_sigma_matches_gaussian_expectation():
    sigma = 0.4
    ring = four_party_ring(george={"disturbance_sigma": sigma})
    src = SourceParams(mu=0.1)
    stats, _ = ring_session(ring, "alice", SessionParams(pulses=400_000, seed=89, source=src))
    assert all(abs(z) < 3.0 for z in oracle_z_scores(stats, ring_oracle(ring, "alice", src)))


def test_uniform_disturbance_randomizes_key():
    ring = four_party_ring(
        fox={"disturbance_sigma": 1.0, "disturbance_kind": DisturbanceKind.UNIFORM}
    )
    stats, _ = ring_session(
        ring, "david", SessionParams(pulses=400_000, seed=97, source=SourceParams(mu=0.1))
    )
    assert stats.qber == pytest.approx(0.5, abs=0.01)
    assert detect_disturbance(stats) is DisturbanceVerdict.DISTURBED


def test_expected_qber_monotone_in_sigma():
    qs = [
        ring_oracle(four_party_ring(fox={"disturbance_sigma": s}), "david", SourceParams()).qber
        for s in np.linspace(0.0, 4.0, 40)
    ]
    assert all(b >= a - 1e-15 for a, b in zip(qs, qs[1:]))
    assert qs[0] == 0.0
    assert qs[-1] == pytest.approx(0.5, abs=1e-6)


def test_disturbance_monotone_in_simulation():
    results = []
    for sigma in (0.0, 0.5, 1.2):
        ring = four_party_ring(fox={"disturbance_sigma": sigma})
        stats, _ = ring_session(
            ring, "david", SessionParams(pulses=150_000, seed=101, source=SourceParams(mu=0.2))
        )
        results.append(stats.qber)
    assert results[0] < results[1] < results[2]


# ---------------------------------------------------------------- detection


def _stats_with_qber(errors, sifted):
    return SessionStats.from_counts(
        pulses_sent=10 * sifted or 10,
        raw_clicks=2 * sifted,
        sifted_bits=sifted,
        errors=errors,
        disclosed_bits=sifted,
        rep_rate=100e3,
    )


def test_detect_disturbance_thresholds():
    assert detect_disturbance(_stats_with_qber(540, 10_000)) is DisturbanceVerdict.CLEAN
    assert detect_disturbance(_stats_with_qber(2500, 10_000)) is DisturbanceVerdict.DISTURBED
    assert detect_disturbance(_stats_with_qber(0, 10_000)) is DisturbanceVerdict.CLEAN
    assert detect_disturbance(_stats_with_qber(0, 0)) is DisturbanceVerdict.INDETERMINATE


def test_detect_disturbance_respects_interval_width():
    # same 15% point estimate: decisive with plenty of bits, not with a handful
    assert detect_disturbance(_stats_with_qber(1500, 10_000)) is DisturbanceVerdict.DISTURBED
    assert detect_disturbance(_stats_with_qber(3, 20)) is DisturbanceVerdict.CLEAN

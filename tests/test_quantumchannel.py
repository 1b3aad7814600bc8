import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loopqkd.bb84 import PHASE_CODING
from loopqkd.jones import rotator
from loopqkd.loopmodel import fringe_coefficients, standard_loop
from loopqkd.quantumchannel import (
    ClickLaw,
    DetectorParams,
    DoubleClickPolicy,
    RngStream,
    SourceParams,
    cell_click_law,
    expected_session,
    no_click_probabilities,
)
from loopqkd.session import SessionParams, run_session


def outcome_probs(p1, p2, src, det):
    """(none, d1 only, d2 only, both) for given port probabilities."""
    law = ClickLaw(*no_click_probabilities(p1, p2, src, det))
    return (law.q_none, law.q_d1, law.q_d2, law.q_both)


def truncated_poisson_oracle(p1, p2, mu, eta, dark, n_max=40):
    """Four-outcome distribution by explicit sum over photon numbers.

    Each of n photons independently causes a click at detector i with
    probability eta * p_i; darks multiply in per detector.
    """
    pois = [math.exp(-mu) * mu**n / math.factorial(n) for n in range(n_max + 1)]
    a1_sig = sum(w * (1.0 - eta * p1) ** n for n, w in enumerate(pois))
    a2_sig = sum(w * (1.0 - eta * p2) ** n for n, w in enumerate(pois))
    none_sig = sum(w * (1.0 - eta * p1 - eta * p2) ** n for n, w in enumerate(pois))
    a1 = (1.0 - dark) * a1_sig
    a2 = (1.0 - dark) * a2_sig
    q_none = (1.0 - dark) ** 2 * none_sig
    return (q_none, a2 - q_none, a1 - q_none, 1.0 - a1 - a2 + q_none)


# ------------------------------------------------------------ click law


def test_no_light_no_darks():
    q = outcome_probs(0.5, 0.5, SourceParams(mu=0.0), DetectorParams())
    assert q == pytest.approx((1.0, 0.0, 0.0, 0.0), abs=1e-15)


def test_weak_pulse_single_port():
    _, q_d1, q_d2, q_both = outcome_probs(
        1.0, 0.0, SourceParams(mu=0.1), DetectorParams(efficiency=1.0)
    )
    assert q_d1 == pytest.approx(1.0 - math.exp(-0.1), abs=1e-12)
    assert q_d1 == pytest.approx(0.095163, abs=1e-6)
    assert q_d2 == 0.0
    assert q_both == 0.0


def test_matches_truncated_poisson_expansion():
    rng = np.random.default_rng(21)
    for _ in range(200):
        p1 = rng.uniform(0.0, 0.7)
        p2 = rng.uniform(0.0, 1.0 - p1)
        mu = rng.uniform(0.0, 1.0)
        eta = rng.uniform(0.0, 1.0)
        dark = rng.uniform(0.0, 0.01)
        got = outcome_probs(
            p1, p2, SourceParams(mu=mu), DetectorParams(efficiency=eta, dark_prob=dark)
        )
        want = truncated_poisson_oracle(p1, p2, mu, eta, dark)
        assert got == pytest.approx(want, abs=1e-10)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.0, 0.6),
    st.floats(0.0, 0.4),
    st.floats(0.0, 2.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 0.99),
)
def test_distribution_normalized_and_bounded(p1, p2, mu, eta, dark):
    q = outcome_probs(p1, p2, SourceParams(mu=mu), DetectorParams(efficiency=eta, dark_prob=dark))
    assert abs(sum(q) - 1.0) < 1e-12
    assert all(0.0 <= x <= 1.0 for x in q)


@settings(max_examples=150, deadline=None)
@given(
    st.floats(0.0, 0.5),
    st.floats(0.0, 0.5),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 0.9),
    st.floats(0.001, 0.5),
)
def test_click_probability_monotone(p1, p2, mu, eta, dark, bump):
    def p_click_1(mu_, eta_, dark_):
        _, q_d1, _, q_both = outcome_probs(
            p1, p2, SourceParams(mu=mu_), DetectorParams(efficiency=eta_, dark_prob=dark_)
        )
        return q_d1 + q_both

    base = p_click_1(mu, eta, dark)
    assert p_click_1(mu + bump, eta, dark) >= base - 1e-12
    assert p_click_1(mu, min(1.0, eta + bump), dark) >= base - 1e-12
    assert p_click_1(mu, eta, min(0.99, dark + bump)) >= base - 1e-12


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError, match="mu"):
        SourceParams(mu=-1.0).validate()
    with pytest.raises(ValueError, match="efficiency"):
        DetectorParams(efficiency=1.5).validate()
    with pytest.raises(ValueError, match="dark_prob"):
        DetectorParams(dark_prob=1.0).validate()


# ---------------------------------------------------------------- sampling


def categorical(u, law):
    """The engine's outcome code: how many of the law's thresholds u passes."""
    return sum((u >= t).astype(np.int8) for t in law.thresholds())


def test_sample_pulse_point_distributions():
    u = np.linspace(0.0, 1.0, 1001, endpoint=False)
    # (a1, a2) no-click probabilities that put all mass on one outcome
    for code, (a1, a2) in enumerate(((1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0))):
        assert np.all(categorical(u, ClickLaw(a1, a2)) == code)


def test_sample_pulse_law_of_large_numbers():
    # the engine's outcome frequencies in each choice cell follow its click law
    cfg = standard_loop(delay_jones=rotator(0.3), attenuator_transmittance=0.8)
    src = SourceParams(mu=1.0)
    det = DetectorParams(efficiency=0.7, dark_prob=0.01)
    n = 400_000
    _, t = run_session(cfg, SessionParams(pulses=n, seed=42, source=src, detectors=det), collect_records=True)
    law = cell_click_law(fringe_coefficients(cfg), PHASE_CODING, src, det)
    cell = (t.alice_bases * 2 + t.alice_bits) * 2 + t.bob_bases
    for c in range(8):
        codes = t.outcome[cell == c]
        freqs = np.bincount(codes, minlength=4) / len(codes)
        q = np.array([law.q_none[c], law.q_d1[c], law.q_d2[c], law.q_both[c]])
        sd = np.sqrt(q * (1.0 - q) / len(codes))
        assert np.all(np.abs(freqs - q) <= 4.0 * sd + 1e-12)


# ---------------------------------------------------------------- RngStream


def test_rng_stream_determinism():
    a = RngStream(123, 5)
    b = RngStream(123, 5)
    assert np.array_equal(a.generator.random(100), b.generator.random(100))


def test_rng_substreams_are_independent_and_stable():
    root = RngStream(99)
    s1 = root.substream(1, 0).generator.random(10)
    s2 = root.substream(2, 0).generator.random(10)
    assert not np.array_equal(s1, s2)
    assert np.array_equal(s1, RngStream(99).substream(1, 0).generator.random(10))


def test_rng_seeds_above_int64_draw_distinct_streams():
    def draws(seed):
        return RngStream(seed).substream(1, 0).generator.random(4)

    assert not np.array_equal(draws(2**63), draws(2**63 + 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top = draws(2**64 - 1)
    assert not np.array_equal(top, draws(0))
    assert not np.array_equal(top, draws(2**64 - 2))


def test_rng_keys_below_int64_unchanged():
    # the uint64 key reproduces the streams a list key gave below 2**63
    rng = np.random.default_rng(3)
    for seed, stream in rng.integers(0, 2**63, size=(50, 2), dtype=np.uint64).tolist():
        old = np.random.Generator(np.random.Philox(key=[seed, stream])).random(4)
        assert np.array_equal(RngStream(seed, stream).generator.random(4), old)


# ---------------------------------------------------------- expected_session


def test_expected_session_ideal():
    exp = expected_session(
        standard_loop(),
        PHASE_CODING,
        SourceParams(mu=0.1, rep_rate=100e3),
        DetectorParams(efficiency=1.0, dark_prob=0.0),
    )
    assert exp.sifted_prob == pytest.approx(0.5 * (1.0 - math.exp(-0.1)), abs=1e-12)
    assert exp.sifted_prob == pytest.approx(0.047581, abs=1e-6)
    assert exp.qber == 0.0
    assert exp.raw_rate == pytest.approx(100e3 * exp.sifted_prob)


def test_expected_session_darks_only():
    exp = expected_session(
        standard_loop(),
        PHASE_CODING,
        SourceParams(mu=0.0),
        DetectorParams(efficiency=1.0, dark_prob=1e-4),
    )
    assert exp.qber == pytest.approx(0.5, abs=1e-12)


def test_expected_session_random_assign_counts_double_clicks():
    src = SourceParams(mu=0.6)
    det_discard = DetectorParams(efficiency=1.0, dark_prob=1e-3)
    det_assign = DetectorParams(
        efficiency=1.0, dark_prob=1e-3, double_click_policy=DoubleClickPolicy.RANDOM_ASSIGN
    )
    cfg = standard_loop()
    e_discard = expected_session(cfg, PHASE_CODING, src, det_discard)
    e_assign = expected_session(cfg, PHASE_CODING, src, det_assign)
    assert e_assign.sifted_prob > e_discard.sifted_prob
    assert e_assign.qber > e_discard.qber  # random halves of double clicks are errors

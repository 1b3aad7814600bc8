import dataclasses
import math

import numpy as np
import pytest

from loopqkd.bb84 import PHASE_CODING, EveConfig, EveStrategy, PulseRecord, sift
from loopqkd.harness import transcript_csv
from loopqkd.jones import rotator
from loopqkd.loopmodel import standard_loop
from loopqkd.quantumchannel import (
    ClickOutcome,
    DetectorParams,
    DoubleClickPolicy,
    SourceParams,
    expected_session,
)
from loopqkd.session import DisturbanceKind, NoiseTap, SessionParams, run_session


def mc_tolerances(exp, pulses):
    """3-sigma binomial tolerances for (sifted count, qber)."""
    sift_sd = math.sqrt(pulses * exp.sifted_prob * (1.0 - exp.sifted_prob))
    n_sift = pulses * exp.sifted_prob
    q = exp.qber if exp.qber > 0 else 0.0
    qber_sd = math.sqrt(q * (1.0 - q) / n_sift) if n_sift > 0 else float("inf")
    return 3.0 * sift_sd, 3.0 * qber_sd


def test_session_deterministic_per_seed():
    cfg = standard_loop()
    params = SessionParams(pulses=50_000, seed=11, source=SourceParams(mu=0.2))
    s1, _ = run_session(cfg, params)
    s2, _ = run_session(cfg, params)
    assert s1 == s2
    s3, _ = run_session(cfg, SessionParams(pulses=50_000, seed=12, source=SourceParams(mu=0.2)))
    assert s3 != s1


def test_session_independent_of_batch_size():
    # any batch size that holds the whole session gives the same single batch
    cfg = standard_loop()
    a, _ = run_session(cfg, SessionParams(pulses=30_000, seed=5, batch_size=1 << 15))
    b, _ = run_session(cfg, SessionParams(pulses=30_000, seed=5, batch_size=1 << 17))
    assert a == b


def test_multi_batch_session_matches_closed_form():
    # 1 << 12 splits the session into 74 batches, each on its own substreams
    cfg = standard_loop(delay_jones=rotator(0.3), attenuator_transmittance=0.6)
    src = SourceParams(mu=0.4)
    det = DetectorParams(efficiency=0.7, dark_prob=1e-3)
    exp = expected_session(cfg, PHASE_CODING, src, det)
    pulses = 300_000
    stats, _ = run_session(
        cfg, SessionParams(pulses=pulses, seed=5, source=src, detectors=det, batch_size=1 << 12)
    )
    sift_tol, qber_tol = mc_tolerances(exp, pulses)
    assert abs(stats.sifted_bits - pulses * exp.sifted_prob) < sift_tol
    assert abs(stats.qber - exp.qber) < qber_tol


def parse_transcript(text):
    """The transcript CSV's rows, read back as ``PulseRecord``s."""
    lines = text.splitlines()
    assert lines[0] == "# schema loopqkd.transcript.v1"
    records = []
    for line in lines[2:]:
        v = line.split(",")
        records.append(
            PulseRecord(
                index=int(v[0]),
                alice_bit=int(v[1]),
                alice_basis=int(v[2]),
                bob_basis=int(v[3]),
                phi_a=float(v[4]),
                phi_b=float(v[5]),
                outcome=ClickOutcome(v[6]),
                sifted=v[7] == "1",
                decoded_bit=int(v[8]) if v[8] else None,
            )
        )
    return records


def test_engine_counts_agree_with_record_sift():
    cfg = standard_loop(delay_jones=rotator(0.25), attenuator_transmittance=0.7)
    params = SessionParams(
        pulses=20_000,
        seed=17,
        source=SourceParams(mu=0.6),
        detectors=DetectorParams(
            efficiency=0.8, dark_prob=1e-3, double_click_policy=DoubleClickPolicy.RANDOM_ASSIGN
        ),
        eve=EveConfig(EveStrategy.INTERCEPT_RESEND, fraction=0.3),
    )
    stats, transcript = run_session(cfg, params, collect_records=True)
    assert transcript is not None and len(transcript) == 20_000
    records = parse_transcript(transcript_csv(transcript))
    assert [r.index for r in records] == list(range(20_000))
    resifted = sift(records, rep_rate=params.source.rep_rate)
    assert resifted.stats.raw_clicks == stats.raw_clicks
    assert resifted.stats.sifted_bits == stats.sifted_bits
    assert resifted.stats.errors == stats.errors
    assert resifted.stats.raw_rate == pytest.approx(stats.raw_rate)


@pytest.mark.parametrize(
    "mu,eta,dark,angle,att,policy",
    [
        (0.1, 1.0, 0.0, 0.0, 1.0, DoubleClickPolicy.DISCARD),
        (0.3, 0.6, 1e-4, 0.2, 0.8, DoubleClickPolicy.DISCARD),
        (0.8, 0.4, 1e-3, 0.5, 0.5, DoubleClickPolicy.RANDOM_ASSIGN),
    ],
)
def test_monte_carlo_matches_closed_form(mu, eta, dark, angle, att, policy):
    cfg = standard_loop(delay_jones=rotator(angle), attenuator_transmittance=att)
    src = SourceParams(mu=mu)
    det = DetectorParams(efficiency=eta, dark_prob=dark, double_click_policy=policy)
    exp = expected_session(cfg, PHASE_CODING, src, det)
    pulses = 400_000
    stats, _ = run_session(cfg, SessionParams(pulses=pulses, seed=24, source=src, detectors=det))
    sift_tol, qber_tol = mc_tolerances(exp, pulses)
    assert abs(stats.sifted_bits - pulses * exp.sifted_prob) < sift_tol
    if exp.qber > 0:
        assert abs(stats.qber - exp.qber) < qber_tol
    else:
        assert stats.errors == 0


def test_eve_fraction_zero_identical_to_off():
    cfg = standard_loop()
    base = dict(pulses=30_000, seed=31, source=SourceParams(mu=0.3))
    s_off, t_off = run_session(cfg, SessionParams(**base), collect_records=True)
    s_zero, t_zero = run_session(
        cfg,
        SessionParams(**base, eve=EveConfig(EveStrategy.INTERCEPT_RESEND, fraction=0.0)),
        collect_records=True,
    )
    assert s_off == s_zero
    for column in dataclasses.fields(t_off):
        assert np.array_equal(getattr(t_off, column.name), getattr(t_zero, column.name))


def test_intercept_resend_quarter_error_rate():
    # mu must stay small: with brighter pulses the double-click discard
    # trims the wrong-basis branch and pulls the observed rate below 1/4.
    cfg = standard_loop()
    src = SourceParams(mu=0.1)
    stats, _ = run_session(
        cfg,
        SessionParams(
            pulses=1_000_000,
            seed=37,
            source=src,
            eve=EveConfig(EveStrategy.INTERCEPT_RESEND, fraction=1.0),
        ),
    )
    assert stats.sifted_bits > 40_000
    assert stats.qber == pytest.approx(0.25, abs=0.01)


def test_partial_attack_scales_linearly():
    cfg = standard_loop()
    stats, _ = run_session(
        cfg,
        SessionParams(
            pulses=1_000_000,
            seed=41,
            source=SourceParams(mu=0.1),
            eve=EveConfig(EveStrategy.INTERCEPT_RESEND, fraction=0.5),
        ),
    )
    assert stats.qber == pytest.approx(0.125, abs=0.01)


def test_mismatched_bases_halve_the_sifted_clicks():
    cfg = standard_loop()
    stats, _ = run_session(cfg, SessionParams(pulses=200_000, seed=43, source=SourceParams(mu=0.3)))
    # basis agreement is an independent fair coin, so sifted ~ half the clicks
    ratio = stats.sifted_bits / stats.raw_clicks
    sd = 0.5 / math.sqrt(stats.raw_clicks)
    assert abs(ratio - 0.5) < 3.5 * sd


def test_reduced_visibility_sets_error_floor():
    # weak pulses so the exponential click law stays in its linear regime,
    # where the error floor is (1 - V) / 2
    angle = 0.3
    v = math.cos(2.0 * angle)
    cfg = standard_loop(delay_jones=rotator(angle))
    src = SourceParams(mu=0.03)
    det = DetectorParams()
    exp = expected_session(cfg, PHASE_CODING, src, det)
    assert exp.qber == pytest.approx((1.0 - v) / 2.0, abs=2e-3)
    pulses = 800_000
    stats, _ = run_session(cfg, SessionParams(pulses=pulses, seed=47, source=src, detectors=det))
    _, qber_tol = mc_tolerances(exp, pulses)
    assert abs(stats.qber - (1.0 - v) / 2.0) < qber_tol + 2e-3
    assert abs(stats.qber - exp.qber) < qber_tol


def test_qber_composition_formula():
    """Error rate splits into an optical part (1-V)/2 and a symmetric dark part."""
    angle, mu, eta, dark, att = 0.25, 0.05, 0.5, 2e-5, 0.7
    v = math.cos(2.0 * angle)
    cfg = standard_loop(delay_jones=rotator(angle), attenuator_transmittance=att)
    src = SourceParams(mu=mu)
    det = DetectorParams(efficiency=eta, dark_prob=dark)
    t_loop = att
    p_signal = 0.5 * (1.0 - math.exp(-mu * eta * t_loop))
    p_dark_sift = 0.5 * 2.0 * dark * math.exp(-mu * eta * t_loop)
    composed = (0.5 * (1.0 - v) * p_signal + 0.5 * p_dark_sift) / (p_signal + p_dark_sift)
    exp = expected_session(cfg, PHASE_CODING, src, det)
    assert composed == pytest.approx(exp.qber, abs=1e-3)
    pulses = 2_000_000
    stats, _ = run_session(cfg, SessionParams(pulses=pulses, seed=53, source=src, detectors=det))
    _, qber_tol = mc_tolerances(exp, pulses)
    assert abs(stats.qber - composed) < qber_tol


def test_disclosed_fraction_subsamples_qber_estimate():
    cfg = standard_loop(delay_jones=rotator(0.3))
    params = SessionParams(
        pulses=100_000, seed=59, source=SourceParams(mu=0.3), disclosed_fraction=0.25
    )
    stats, _ = run_session(cfg, params)
    assert 0 < stats.disclosed_bits < stats.sifted_bits
    assert stats.disclosed_bits == pytest.approx(0.25 * stats.sifted_bits, rel=0.1)
    assert stats.qber == pytest.approx((1 - math.cos(0.6)) / 2, abs=0.02)


def test_noise_tap_gaussian_matches_expectation():
    from loopqkd.loopnet import expected_disturbed_qber

    cfg = standard_loop()
    sigma = 0.5
    stats, _ = run_session(
        cfg,
        SessionParams(pulses=400_000, seed=61, source=SourceParams(mu=0.1)),
        noise=(NoiseTap(sigma=sigma, tag=0),),
    )
    want = expected_disturbed_qber(sigma)
    sd = math.sqrt(want * (1 - want) / stats.sifted_bits)
    assert abs(stats.qber - want) < 3.0 * sd + 2e-3


def test_session_params_validation():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            SessionParams(pulses=10, seed=seed).validate()
    SessionParams(pulses=10, seed=2**64 - 1).validate()
    with pytest.raises(ValueError, match="pulses"):
        SessionParams(pulses=0, seed=1).validate()
    with pytest.raises(ValueError, match="disclosed_fraction"):
        SessionParams(pulses=10, seed=1, disclosed_fraction=0.0).validate()
    with pytest.raises(ValueError, match="fraction"):
        SessionParams(pulses=10, seed=1, eve=EveConfig(fraction=1.5)).validate()

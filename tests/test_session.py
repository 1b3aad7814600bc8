import dataclasses
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from loopqkd.bb84 import PHASE_CODING, EveConfig, EveStrategy, PulseRecord, sift
from loopqkd.harness import (
    build_scenario,
    expected_for_scenario,
    oracle_z_scores,
    run,
    transcript_csv,
)
from loopqkd.jones import retarder, rotator
from loopqkd.loopmodel import (
    DEFAULT_GATE_WIDTH,
    fringe_coefficients,
    modulator_separation,
    standard_loop,
)
from loopqkd.quantumchannel import (
    ClickOutcome,
    DetectorParams,
    DoubleClickPolicy,
    RngStream,
    SourceParams,
    expected_session,
)
from loopqkd.session import (
    PURPOSE_CHOICES,
    DisturbanceKind,
    NoiseTap,
    SessionParams,
    choice_bits,
    run_session,
    tap_quadrature,
)


def assert_within_3_sigma(stats, exp):
    """The session's sifted bits and QBER lie within 3 sigma of ``exp``; where
    the expected QBER is 0, no error occurs."""
    z_sifted, z_qber = oracle_z_scores(stats, exp)
    assert abs(z_sifted) < 3.0, z_sifted
    if exp.qber == 0.0:
        assert stats.errors == 0
    else:
        assert abs(z_qber) < 3.0, z_qber


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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3000), st.integers(0, 2**64 - 1), st.integers(0, (1 << 40) - 1))
@example(n=1, seed=0, batch=0)
@example(n=(1 << 17) + 1, seed=2**64 - 1, batch=7)
def test_choice_bits_equal_three_integer_draws(n, seed, batch):
    # the raw words' top bits are what Generator.integers(0, 2) returns,
    # including the half word an odd n leaves buffered between its calls
    generator = RngStream(seed).substream(PURPOSE_CHOICES, batch).generator
    want = [generator.integers(0, 2, size=n) for _ in range(3)]
    got = choice_bits(RngStream(seed).substream(PURPOSE_CHOICES, batch), n)
    assert got.shape == (3, n)
    assert all(np.array_equal(row, draw) for row, draw in zip(got, want))


# ---------------------------------------------------------------- substream layout
#
# Substreams are keyed by batch index, so a session's counts change with
# batch_size once it spans more than one batch.  What the layout does
# guarantee is checked below over random loops, Eve, Gaussian and uniform
# noise taps, both double-click policies, swapped detector bits and
# disclosed fractions below one.


@st.composite
def session_setups(draw):
    """(loop, SessionParams keywords without pulses and batch_size, noise taps)."""
    cfg = standard_loop(
        delay_jones=rotator(draw(st.floats(-1.0, 1.0))),
        attenuator_transmittance=draw(st.floats(0.05, 1.0)),
    )
    fraction = draw(st.floats(0.0, 1.0))
    kinds = draw(st.lists(st.sampled_from(list(DisturbanceKind)), max_size=2))
    noise = tuple(
        NoiseTap(sigma=draw(st.floats(0.01, 3.0)), kind=kind, tag=i) for i, kind in enumerate(kinds)
    )
    params = dict(
        seed=draw(st.integers(0, 2**64 - 1)),
        source=SourceParams(mu=draw(st.floats(0.05, 2.0))),
        detectors=DetectorParams(
            efficiency=draw(st.floats(0.1, 1.0)),
            dark_prob=draw(st.floats(0.0, 0.05)),
            double_click_policy=draw(st.sampled_from(list(DoubleClickPolicy))),
        ),
        eve=draw(st.sampled_from([EveConfig(), EveConfig(EveStrategy.INTERCEPT_RESEND, fraction)])),
        disclosed_fraction=draw(st.one_of(st.just(1.0), st.floats(0.05, 0.95))),
        swap_detector_bits=draw(st.booleans()),
    )
    return cfg, params, noise


def session_counts(stats):
    return (stats.pulses_sent, stats.raw_clicks, stats.sifted_bits, stats.errors, stats.disclosed_bits)


def transcript_columns(transcript):
    """The transcript's array columns; its phase table is compared on its own."""
    return [getattr(transcript, f.name) for f in dataclasses.fields(transcript) if f.name != "table"]


def same_table(a, b):
    return np.array_equal(a.alice_phases, b.alice_phases) and np.array_equal(a.bob_phases, b.bob_phases)


@settings(max_examples=40, deadline=None)
@given(session_setups(), st.integers(1, 2000), st.integers(0, 3000), st.integers(0, 3000))
def test_batch_sizes_that_hold_the_session_agree(setup, pulses, spare_a, spare_b):
    cfg, params, noise = setup
    (stats_a, t_a), (stats_b, t_b) = (
        run_session(
            cfg, SessionParams(pulses=pulses, batch_size=pulses + spare, **params), noise, True
        )
        for spare in (spare_a, spare_b)
    )
    assert session_counts(stats_a) == session_counts(stats_b)
    for a, b in zip(transcript_columns(t_a), transcript_columns(t_b)):
        assert np.array_equal(a, b)
    assert same_table(t_a.table, t_b.table)


@settings(max_examples=40, deadline=None)
@given(session_setups(), st.integers(1, 64), st.integers(1, 4), st.integers(1, 200))
def test_whole_batches_are_a_prefix_of_a_longer_session(setup, batch, k, more):
    cfg, params, noise = setup
    n = k * batch
    stats, short = run_session(
        cfg, SessionParams(pulses=n, batch_size=batch, **params), noise, collect_records=True
    )
    _, long = run_session(
        cfg, SessionParams(pulses=n + more, batch_size=batch, **params), noise, collect_records=True
    )
    for got, want in zip(transcript_columns(short), transcript_columns(long)):
        assert np.array_equal(got, want[:n])
    assert same_table(short.table, long.table)
    assert stats.raw_clicks == np.count_nonzero(long.outcome[:n])
    assert stats.sifted_bits == np.count_nonzero(long.sifted[:n])


def test_multi_batch_session_matches_closed_form():
    # 1 << 12 splits the session into 74 batches, each on its own substreams
    cfg = standard_loop(delay_jones=rotator(0.3), attenuator_transmittance=0.6)
    src = SourceParams(mu=0.4)
    det = DetectorParams(efficiency=0.7, dark_prob=1e-3)
    exp = expected_session(fringe_coefficients(cfg), PHASE_CODING, src, det)
    stats, _ = run_session(
        cfg, SessionParams(pulses=300_000, seed=5, source=src, detectors=det, batch_size=1 << 12)
    )
    assert_within_3_sigma(stats, exp)


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
    out = io.StringIO()
    transcript_csv(transcript, out)
    records = parse_transcript(out.getvalue())
    assert [r.index for r in records] == list(range(20_000))
    resifted = sift(records, rep_rate=params.source.rep_rate)
    assert resifted.stats.raw_clicks == stats.raw_clicks
    assert resifted.stats.sifted_bits == stats.sifted_bits
    assert resifted.stats.errors == stats.errors
    assert resifted.stats.raw_rate == pytest.approx(stats.raw_rate)


ROOT = Path(__file__).resolve().parent.parent

# Runs paper_calibrated at 2 M pulses without, then with, a transcript and
# prints the peak resident set, in MB, at its start and after each run.
TRANSCRIPT_MEMORY_PROBE = """
import resource, sys
peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
start = peak()
from loopqkd import harness
scenario = harness.load_scenario(sys.argv[1])
harness.run(scenario, pulses=2_000_000)
before = peak()
harness.run(scenario, pulses=2_000_000, collect_records=True)
print(start, before, peak())
"""

# A child's ru_maxrss starts at its parent's peak (Linux keeps the peak of
# the memory image that exec replaces), so the probe is started by a small
# interpreter rather than by this test process.
SPAWN = "import subprocess, sys; subprocess.run(sys.argv[1:], check=True)"


def test_transcript_adds_a_few_bytes_per_pulse():
    # six bytes per pulse are 12 MB at 2 M pulses; keeping each batch's
    # arrays and concatenating them took 113 MB
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    scenario = str(ROOT / "scenarios" / "paper_calibrated.yaml")
    proc = subprocess.run(
        [sys.executable, "-c", SPAWN, sys.executable, "-c", TRANSCRIPT_MEMORY_PROBE, scenario],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    start, before, after = map(float, proc.stdout.split())
    assert start < before  # the probe measured its own runs
    assert after - before < 30.0


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
    exp = expected_session(fringe_coefficients(cfg), PHASE_CODING, src, det)
    stats, _ = run_session(cfg, SessionParams(pulses=400_000, seed=24, source=src, detectors=det))
    assert_within_3_sigma(stats, exp)


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
    exp = expected_session(fringe_coefficients(cfg), PHASE_CODING, src, det)
    assert exp.qber == pytest.approx((1.0 - v) / 2.0, abs=2e-3)
    stats, _ = run_session(cfg, SessionParams(pulses=800_000, seed=47, source=src, detectors=det))
    assert_within_3_sigma(stats, exp)


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
    exp = expected_session(fringe_coefficients(cfg), PHASE_CODING, src, det)
    assert composed == pytest.approx(exp.qber, abs=1e-3)
    stats, _ = run_session(cfg, SessionParams(pulses=2_000_000, seed=53, source=src, detectors=det))
    assert_within_3_sigma(stats, dataclasses.replace(exp, qber=composed))


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
    cfg = standard_loop()
    src = SourceParams(mu=0.1)
    taps = (NoiseTap(sigma=0.5, tag=0),)
    stats, _ = run_session(cfg, SessionParams(pulses=400_000, seed=61, source=src), noise=taps)
    exp = expected_session(
        fringe_coefficients(cfg), PHASE_CODING, src, DetectorParams(), noise=tap_quadrature(taps)
    )
    assert_within_3_sigma(stats, exp)


def dense_gaussian_rule(sigma, points=4001):
    """Trapezoid nodes and weights of N(0, 2 sigma^2) on the real line, out to 12 sd."""
    sd = math.sqrt(2.0) * sigma
    nodes = np.linspace(-12.0 * sd, 12.0 * sd, points)
    density = np.exp(-0.5 * (nodes / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
    weights = density * (nodes[1] - nodes[0])
    weights[[0, -1]] *= 0.5
    return nodes, weights


@pytest.mark.parametrize("sigma", [1e-3, 1e-2, 0.1, 0.4, 1.0])
def test_tap_quadrature_matches_a_dense_integral(sigma):
    cfg = standard_loop(delay_jones=rotator(0.3), lower_jones=retarder(0.7, 0.4))
    fc = fringe_coefficients(cfg)
    src = SourceParams(mu=2.0)
    det = DetectorParams(efficiency=0.8, dark_prob=1e-3)
    got = expected_session(fc, PHASE_CODING, src, det, noise=tap_quadrature((NoiseTap(sigma),)))
    want = expected_session(fc, PHASE_CODING, src, det, noise=dense_gaussian_rule(sigma))
    for field_name in ("sifted_prob", "error_prob", "raw_click_prob", "qber"):
        assert abs(getattr(got, field_name) - getattr(want, field_name)) < 1e-12, field_name


def test_full_attack_approaches_a_quarter_as_mu_vanishes():
    fc = fringe_coefficients(standard_loop())
    qbers = [
        expected_session(fc, PHASE_CODING, SourceParams(mu=mu), DetectorParams(), 1.0).qber
        for mu in (0.5, 0.1, 1e-6)
    ]
    # brighter pulses lose more of the wrong-basis branch to discarded double clicks
    assert qbers[0] < qbers[1] < qbers[2]
    assert qbers[2] == pytest.approx(0.25, abs=1e-6)


@pytest.mark.parametrize(
    "eve_fraction, taps, policy, disclosed, seed",
    [
        (1.0, (), DoubleClickPolicy.RANDOM_ASSIGN, 1.0, 101),
        (
            0.0,
            (NoiseTap(0.3, tag=0), NoiseTap(0.0, DisturbanceKind.UNIFORM, tag=1)),
            DoubleClickPolicy.DISCARD,
            1.0,
            103,
        ),
        (
            0.0,
            (NoiseTap(0.3, tag=0), NoiseTap(0.5, tag=2)),
            DoubleClickPolicy.RANDOM_ASSIGN,
            0.5,
            107,
        ),
    ],
    ids=["eve_random_assign", "gaussian_and_uniform_taps", "two_gaussian_taps_disclosed_half"],
)
def test_engine_agrees_with_the_oracle_on_eve_and_taps(eve_fraction, taps, policy, disclosed, seed):
    cfg = standard_loop(delay_jones=rotator(0.2), attenuator_transmittance=0.7)
    src = SourceParams(mu=0.5)
    det = DetectorParams(efficiency=0.6, dark_prob=1e-3, double_click_policy=policy)
    eve = EveConfig(EveStrategy.INTERCEPT_RESEND, eve_fraction) if eve_fraction else EveConfig()
    params = SessionParams(
        pulses=200_000, seed=seed, source=src, detectors=det, eve=eve, disclosed_fraction=disclosed
    )
    stats, _ = run_session(cfg, params, taps)
    exp = expected_session(
        fringe_coefficients(cfg), PHASE_CODING, src, det, eve_fraction, tap_quadrature(taps)
    )
    assert_within_3_sigma(stats, exp)


def test_session_params_validation():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            SessionParams(pulses=10, seed=seed)
    SessionParams(pulses=10, seed=2**64 - 1)
    with pytest.raises(ValueError, match="pulses"):
        SessionParams(pulses=0, seed=1)
    with pytest.raises(ValueError, match="disclosed_fraction"):
        SessionParams(pulses=10, seed=1, disclosed_fraction=0.0)
    with pytest.raises(ValueError, match="fraction"):
        SessionParams(pulses=10, seed=1, eve=EveConfig(fraction=1.5))
    with pytest.raises(ValueError, match="batch_size"):
        SessionParams(pulses=10, seed=1, batch_size=0)
    # a tap is live by construction: a module that does not disturb gets none
    for sigma in (-1.0, 0.0, math.nan):
        with pytest.raises(ValueError, match="disturbance sigma must be > 0"):
            NoiseTap(sigma=sigma)
    # a uniform tap never reads sigma
    assert NoiseTap(sigma=0.0, kind=DisturbanceKind.UNIFORM).sigma == 0.0


# ---------------------------------------------------------------- timing at Alice's modulator


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.0, 2000.0),
    st.floats(0.0, 2000.0),
    st.one_of(st.floats(-30.0, 30.0), st.floats(-2000.0, 2000.0)),
    st.floats(-1.0, 1.0),
    st.floats(0.05, 1.0),
    st.floats(0.0, 0.01),
    st.sampled_from([p.value for p in DoubleClickPolicy]),
)
def test_oracle_drops_alice_phase_where_pulses_meet(
    lower, delay, offset, angle, efficiency, dark_prob, policy
):
    # the upper link sets how far apart the pulses pass Alice's modulator
    sc = build_scenario(
        {
            "detectors": {"efficiency": efficiency, "dark_prob": dark_prob},
            "protocol": {"double_click_policy": policy},
            "loop": {
                "lower_length": lower,
                "delay_length": delay,
                "upper_length": max(0.0, delay + lower + offset),
                "delay_jones": {"kind": "rotation", "angle": angle},
            },
        }
    )
    exp = expected_for_scenario(sc)
    period = 1.0 / sc.source.rep_rate
    gap = {
        owner: abs(math.remainder(modulator_separation(sc.loop, owner), period))
        for owner in ("alice", "bob")
    }
    table = PHASE_CODING.through(sc.loop, period)
    if gap["alice"] < DEFAULT_GATE_WIDTH:
        assert abs(exp.qber - 0.5) < 1e-12
    else:
        assert np.array_equal(table.alice_phases, PHASE_CODING.alice_phases)
        bob_keeps = gap["bob"] >= DEFAULT_GATE_WIDTH
        assert np.array_equal(table.bob_phases, PHASE_CODING.bob_phases * bob_keeps)
        if bob_keeps:
            fc = fringe_coefficients(sc.loop)
            assert exp == expected_session(fc, PHASE_CODING, sc.source, sc.detectors)


@pytest.mark.parametrize(
    "topology",
    [
        {"loop": {"delay_length": 0.0}},
        {
            "ring": {
                "partner": "a",
                "link_lengths": [0.0, 0.0, 800.0],
                "entities": [{"id": "a"}, {"id": "b"}],
            }
        },
        # the bench geometry passes Alice 3.917 us apart: 83 ns from a 4 us period
        {"source": {"rep_rate": 250_000.0}},
    ],
    ids=["delay_0_loop", "midpoint_ring", "next_pulse_at_250_khz"],
)
def test_pulses_meeting_at_alice_carry_no_key(topology):
    sc = build_scenario({"seed": 20011215, **topology})
    assert abs(expected_for_scenario(sc).qber - 0.5) < 1e-12
    s = run(sc, pulses=100_000)[0].stats
    assert s.disclosed_bits > 4000
    assert abs(s.qber - 0.5) < 3.0 * math.sqrt(0.25 / s.disclosed_bits)
    # the transcript keeps the phases Alice applied, not the ones that reached the coupler
    _, transcript = run(sc, pulses=1000, collect_records=True)
    assert same_table(transcript.table, PHASE_CODING)
    out = io.StringIO()
    transcript_csv(transcript, out)
    phi_a = np.unique([r.phi_a for r in parse_transcript(out.getvalue())])
    assert np.allclose(phi_a, np.sort(PHASE_CODING.alice_phases.ravel()), rtol=1e-8, atol=0.0)

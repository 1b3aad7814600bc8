import io
import math

import numpy as np
import pytest

from loopqkd.bb84 import (
    PHASE_CODING,
    EveConfig,
    EveStrategy,
    PulseRecord,
    SessionStats,
    sift,
    wilson_interval,
)
from loopqkd.harness import transcript_csv
from loopqkd.jones import rotator
from loopqkd.loopmodel import fringe_coefficients, standard_loop
from loopqkd.quantumchannel import (
    ClickLaw,
    ClickOutcome,
    DetectorParams,
    DoubleClickPolicy,
    RngStream,
    SourceParams,
    no_click_probabilities,
)
from loopqkd.session import PURPOSE_EVE, SessionParams, run_session

TWO_PI = 2.0 * math.pi


def transcript_of(pulses, seed, cfg=None, **params):
    """The columnar transcript of one session (default: ideal loop, mu 0.3)."""
    params.setdefault("source", SourceParams(mu=0.3))
    stats, transcript = run_session(
        cfg or standard_loop(), SessionParams(pulses=pulses, seed=seed, **params), collect_records=True
    )
    return stats, transcript


# ---------------------------------------------------------------- phase table


def test_phase_table_rows():
    assert PHASE_CODING.alice_phases[0, 0] == 0.0
    assert PHASE_CODING.alice_phases[0, 1] == pytest.approx(math.pi)
    assert PHASE_CODING.alice_phases[1, 0] == pytest.approx(math.pi / 2)
    assert PHASE_CODING.alice_phases[1, 1] == pytest.approx(3 * math.pi / 2)
    assert PHASE_CODING.bob_phases[0] == 0.0
    assert PHASE_CODING.bob_phases[1] == pytest.approx(math.pi / 2)


def test_cell_deltas_follow_the_cell_layout():
    deltas = PHASE_CODING.cell_deltas
    assert deltas.shape == (8,)
    for a_basis in (0, 1):
        for bit in (0, 1):
            for b_basis in (0, 1):
                want = PHASE_CODING.alice_phases[a_basis, bit] - PHASE_CODING.bob_phases[b_basis]
                assert deltas[(a_basis * 2 + bit) * 2 + b_basis] == want


def test_phase_table_basis_match_structure():
    for a_basis in (0, 1):
        for bit in (0, 1):
            for b_basis in (0, 1):
                phi_a = PHASE_CODING.alice_phases[a_basis, bit]
                delta = (phi_a - PHASE_CODING.bob_phases[b_basis]) % TWO_PI
                if a_basis == b_basis:
                    assert min(abs(delta - 0.0), abs(delta - math.pi), abs(delta - TWO_PI)) < 1e-12
                else:
                    assert min(abs(delta - math.pi / 2), abs(delta - 3 * math.pi / 2)) < 1e-12


# ---------------------------------------------------------------- choices


def test_choices_match_table():
    eve = EveConfig(EveStrategy.INTERCEPT_RESEND, fraction=0.5)
    for seed, params in ((3, {}), (4, {"eve": eve})):
        _, t = transcript_of(2000, seed, **params)
        out = io.StringIO()
        transcript_csv(t, out)
        rows = [line.split(",") for line in out.getvalue().splitlines()[2:]]
        phi_a, phi_b = (np.array(column, dtype=float) for column in list(zip(*rows))[4:6])
        # the CSV's phi_a is Alice's own phase, also on pulses Eve re-prepared
        want_a = PHASE_CODING.alice_phases[t.alice_bases, t.alice_bits]
        assert np.allclose(phi_a, want_a, rtol=1e-8, atol=0.0)
        assert np.allclose(phi_b, PHASE_CODING.bob_phases[t.bob_bases], rtol=1e-8, atol=0.0)


def test_choices_are_uniform():
    n = 100_000
    _, t = transcript_of(n, 4)
    counts = np.bincount(t.alice_bases * 2 + t.alice_bits, minlength=4)
    assert np.all(np.abs(counts / n - 0.25) < 0.01)
    assert abs(np.count_nonzero(t.bob_bases) / n - 0.5) < 0.01


# ---------------------------------------------------------------- decode


def test_decode_mapping():
    # ideal loop, no darks: a sifted click always lands on Alice's bit's
    # detector, so the detector-to-bit convention alone sets the errors
    straight, t = transcript_of(20_000, 5)
    swapped, t_swap = transcript_of(20_000, 5, swap_detector_bits=True)
    assert straight.sifted_bits == swapped.sifted_bits > 0
    assert straight.errors == 0
    assert swapped.errors == swapped.sifted_bits
    assert np.array_equal(t.sifted, t_swap.sifted)
    sifted = t.sifted
    assert np.array_equal(t.decoded[sifted], t.outcome[sifted] - 1)  # d1 -> 0, d2 -> 1
    assert np.array_equal(t_swap.decoded[sifted], 2 - t.outcome[sifted])
    assert np.array_equal(t.decoded[sifted], t.alice_bits[sifted])


def test_matched_basis_ideal_optics_is_deterministic():
    fc = fringe_coefficients(standard_loop())
    src = SourceParams(mu=0.2)
    det = DetectorParams()
    for basis in (0, 1):
        for bit in (0, 1):
            p1, p2 = fc.probs(PHASE_CODING.alice_phases[basis, bit] - PHASE_CODING.bob_phases[basis])
            law = ClickLaw(*no_click_probabilities(p1, p2, src, det))
            assert law.q_both == 0.0
            if bit == 0:
                assert law.q_d2 == 0.0  # every click decodes to 0 == bit
            else:
                assert law.q_d1 == 0.0  # every click decodes to 1 == bit


# ---------------------------------------------------------------- eve


def test_eve_fraction_without_eve_is_refused():
    # the oracle would model an attack the engine never makes
    with pytest.raises(ValueError, match="^eve.fraction 0.5 has no effect: eve.strategy is off"):
        EveConfig(EveStrategy.OFF, 0.5)
    # the range check comes first
    with pytest.raises(ValueError, match=r"^eve.fraction must be in \[0, 1\], got 1.5$"):
        EveConfig(EveStrategy.OFF, 1.5)
    assert EveConfig(EveStrategy.OFF, 0.0) == EveConfig()


def test_eve_off_and_zero_fraction_pass_through():
    # on the ideal loop only an attacked pulse can carry an error
    for eve in (EveConfig(), EveConfig(EveStrategy.INTERCEPT_RESEND, fraction=0.0)):
        stats, _ = transcript_of(50_000, 5, eve=eve)
        assert stats.sifted_bits > 0 and stats.errors == 0
    attacked, _ = transcript_of(50_000, 5, eve=EveConfig(EveStrategy.INTERCEPT_RESEND, fraction=1.0))
    assert attacked.errors > 0


def test_eve_same_basis_is_transparent():
    n, seed = 100_000, 6
    _, t = transcript_of(n, seed, eve=EveConfig(EveStrategy.INTERCEPT_RESEND, fraction=1.0))
    # Eve's bases, re-derived from her substream: attack coins, then bases
    g_eve = RngStream(seed).substream(PURPOSE_EVE, 0).generator
    g_eve.random(n)
    eve_bases = g_eve.integers(0, 2, size=n)
    same = t.sifted & (eve_bases == t.alice_bases)
    other = t.sifted & (eve_bases != t.alice_bases)
    assert np.count_nonzero(same) > 1000
    assert np.array_equal(t.decoded[same], t.alice_bits[same])
    wrong = np.count_nonzero(t.decoded[other] != t.alice_bits[other])
    assert wrong / np.count_nonzero(other) == pytest.approx(0.5, abs=0.03)


def test_intercept_resend_error_rate_by_enumeration():
    """All (alice basis/bit, eve basis, bob=alice basis) cases: sifted error
    probability is exactly 1/4 under full attack."""
    total_error = 0.0
    cells = 0
    for a_basis in (0, 1):
        for a_bit in (0, 1):
            phi_a = PHASE_CODING.alice_phases[a_basis, a_bit]
            for e_basis in (0, 1):
                p_e0 = math.cos((phi_a - PHASE_CODING.bob_phases[e_basis]) / 2.0) ** 2
                for e_bit, p_e in ((0, p_e0), (1, 1.0 - p_e0)):
                    re_phi = PHASE_CODING.alice_phases[e_basis, e_bit]
                    # Bob measures in Alice's basis (only matched pulses survive sifting)
                    delta = (re_phi - PHASE_CODING.bob_phases[a_basis]) % TWO_PI
                    p_click_d1 = math.cos(delta / 2.0) ** 2
                    p_wrong = (1.0 - p_click_d1) if a_bit == 0 else p_click_d1
                    total_error += 0.5 * p_e * p_wrong  # eve basis is a fair coin
            cells += 1
    assert total_error / cells == pytest.approx(0.25, abs=1e-12)


# ---------------------------------------------------------------- sift


def _record(i, bit, a_basis, b_basis, outcome, decoded=None):
    """A protocol record; it is sifted exactly when it carries a decoded bit."""
    return PulseRecord(
        index=i,
        alice_bit=bit,
        alice_basis=a_basis,
        bob_basis=b_basis,
        phi_a=PHASE_CODING.alice_phases[a_basis, bit],
        phi_b=PHASE_CODING.bob_phases[b_basis],
        outcome=outcome,
        sifted=decoded is not None,
        decoded_bit=decoded,
    )


def test_sift_all_matched_ideal():
    records = [
        _record(i, i % 2, 0, 0, ClickOutcome.D1 if i % 2 == 0 else ClickOutcome.D2, decoded=i % 2)
        for i in range(100)
    ]
    result = sift(records, rep_rate=100e3)
    assert result.stats.qber == 0.0
    assert result.stats.sifted_bits == 100
    assert result.stats.raw_rate == pytest.approx(100 * 100e3 / 100)


def test_sift_drops_mismatched_and_empty():
    records = [
        _record(0, 0, 0, 0, ClickOutcome.D1, decoded=0),
        _record(1, 0, 0, 1, ClickOutcome.D1),  # basis mismatch
        _record(2, 0, 0, 0, ClickOutcome.NONE),  # no click
        _record(3, 1, 1, 1, ClickOutcome.BOTH),  # double click, discard policy
    ]
    result = sift(records, rep_rate=1.0)
    assert result.stats.sifted_bits == 1
    assert result.stats.raw_clicks == 3
    assert result.stats.pulses_sent == 4
    with pytest.raises(ValueError, match="no decoded bit"):
        sift([PulseRecord(0, 0, 0, 0, 0.0, 0.0, ClickOutcome.D1, True, None)], rep_rate=1.0)


def test_sift_double_click_random_assignment():
    # bright pulses on a misaligned loop give double clicks in matched bases
    cfg = standard_loop(delay_jones=rotator(0.3))
    base = dict(source=SourceParams(mu=2.0))
    _, kept = transcript_of(
        20_000, 9, cfg, detectors=DetectorParams(double_click_policy=DoubleClickPolicy.RANDOM_ASSIGN), **base
    )
    _, dropped = transcript_of(20_000, 9, cfg, **base)
    # the assignment coins follow the outcome coins, so raw outcomes agree
    assert np.array_equal(kept.outcome, dropped.outcome)
    double = (kept.outcome == 3) & (kept.alice_bases == kept.bob_bases)
    assert np.count_nonzero(double) > 500
    assert np.all(kept.sifted[double]) and not np.any(dropped.sifted[double])
    ones = np.count_nonzero(kept.decoded[double]) / np.count_nonzero(double)
    assert ones == pytest.approx(0.5, abs=0.05)


def test_sift_zero_bits_flags_undefined_qber():
    records = [_record(0, 0, 0, 1, ClickOutcome.D1)]
    result = sift(records, rep_rate=1.0)
    assert result.stats.sifted_bits == 0
    assert not result.stats.qber_defined
    assert math.isnan(result.stats.qber)


# ---------------------------------------------------------------- stats


def test_session_stats_invariants():
    s = SessionStats.from_counts(1000, 120, 60, 3, 60, rep_rate=100e3)
    assert s.qber == pytest.approx(0.05)
    assert s.raw_rate == pytest.approx(60 * 100e3 / 1000)
    assert s.qber_low < s.qber < s.qber_high
    with pytest.raises(ValueError):
        SessionStats.from_counts(1000, 120, 60, 61, 60, rep_rate=100e3)
    assert SessionStats.from_counts(1, 1, 1, 0, 1, rep_rate=100e3).raw_rate == 100e3


def test_wilson_interval_properties():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.05
    lo, hi = wilson_interval(54, 1000)
    assert lo < 0.054 < hi
    lo_big, hi_big = wilson_interval(540, 10000)
    assert hi_big - lo_big < hi - lo  # shrinks with n
    assert wilson_interval(0, 0) == (pytest.approx(math.nan, nan_ok=True),) * 2
    for n in range(1, 200):
        lo, hi = wilson_interval(n, n)
        assert hi == 1.0 and 0.0 < lo < 1.0, n

"""The 8-cell click table against the per-pulse expressions it replaces.

The session engine gathers each pulse's outcome thresholds from the table
of the 8 choice cells, and ``expected_session`` sums over the same table.
Both must reproduce, bit for bit, what evaluating the fringe and the
no-click exponentials on every pulse (engine) or on every scalar cell
(oracle) gives.  The references below are those per-pulse and per-cell
expressions, written out.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from loopqkd.bb84 import PHASE_CODING
from loopqkd.jones import rotator
from loopqkd.loopmodel import fringe_coefficients, standard_loop
from loopqkd.quantumchannel import (
    ClickLaw,
    DetectorParams,
    DoubleClickPolicy,
    SourceParams,
    cell_click_law,
    expected_session,
    no_click_probabilities,
)

loops = st.builds(
    lambda kappa, angle, att: standard_loop(
        coupler_ratio=kappa, delay_jones=rotator(angle), attenuator_transmittance=att
    ),
    st.floats(0.05, 0.95),
    st.floats(-math.pi, math.pi),
    st.floats(0.01, 1.0),
)
sources = st.builds(SourceParams, mu=st.floats(0.0, 5.0))
detectors = st.builds(
    DetectorParams,
    efficiency=st.floats(0.0, 1.0),
    dark_prob=st.floats(0.0, 0.1),
    double_click_policy=st.sampled_from(list(DoubleClickPolicy)),
)


def per_pulse_thresholds(delta, fc, src, det):
    """Thresholds as evaluated on every pulse's own phase difference."""
    p1, p2 = fc.probs(np.asarray(delta, dtype=float) % (2.0 * math.pi))
    a1, a2 = no_click_probabilities(p1, p2, src, det)
    q_none = a1 * a2
    q_d1 = (1.0 - a1) * a2
    q_d2 = a1 * (1.0 - a2)
    return q_none, q_none + q_d1, q_none + q_d1 + q_d2


def per_cell_expected(cfg, table, src, det):
    """(sifted, errors, clicks) summed cell by cell from scalar click laws."""
    fc = fringe_coefficients(cfg)
    sifted = errors = clicks = 0.0
    w = 1.0 / 8.0
    for a_basis in (0, 1):
        for a_bit in (0, 1):
            for b_basis in (0, 1):
                delta = table.alice(a_basis, a_bit) - table.bob(b_basis)
                p1, p2 = fc.probs(delta % (2.0 * math.pi))
                d = ClickLaw(*no_click_probabilities(p1, p2, src, det))
                clicks += w * (d.q_d1 + d.q_d2 + d.q_both)
                if a_basis != b_basis:
                    continue
                wrong = d.q_d2 if a_bit == 0 else d.q_d1
                if det.double_click_policy is DoubleClickPolicy.DISCARD:
                    sifted += w * (d.q_d1 + d.q_d2)
                    errors += w * wrong
                else:
                    sifted += w * (d.q_d1 + d.q_d2 + d.q_both)
                    errors += w * (wrong + 0.5 * d.q_both)
    return sifted, errors, clicks


@settings(max_examples=60, deadline=None)
@given(loops, sources, detectors, st.integers(0, 2**32 - 1))
def test_gathered_cell_thresholds_equal_per_pulse_thresholds(cfg, src, det, seed):
    fc = fringe_coefficients(cfg)
    table = PHASE_CODING
    rng = np.random.default_rng(seed)
    cell = rng.permutation(np.arange(1024 + int(rng.integers(0, 512))) % 8)
    alice_basis, alice_bit, bob_basis = cell // 4, cell // 2 % 2, cell % 2
    delta = table.alice_phases[alice_basis, alice_bit] - table.bob_phases[bob_basis]
    gathered = [t[cell] for t in cell_click_law(fc, table, src, det).thresholds()]
    for got, want in zip(gathered, per_pulse_thresholds(delta, fc, src, det)):
        assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(loops, sources, detectors)
def test_expected_session_equals_per_cell_formula(cfg, src, det):
    exp = expected_session(cfg, PHASE_CODING, src, det)
    sifted, errors, clicks = per_cell_expected(cfg, PHASE_CODING, src, det)
    assert (exp.sifted_prob, exp.error_prob, exp.raw_click_prob) == (sifted, errors, clicks)
    assert exp.raw_rate == src.rep_rate * sifted
    assert all(type(v) is float for v in (exp.sifted_prob, exp.error_prob, exp.raw_click_prob))

"""Stage replay: the session engine's batch loop rebuilt with a timer per stage.

``session.run_session`` has no public function per stage, so the stage
shares of engine time come from this replay.  It draws from the same
Philox substreams (``RngStream.substream``), looks phases up in the same
``PhaseTable`` and calls the same ``FringeCoefficients.probs`` and
``no_click_probabilities``, with the engine's arithmetic in the engine's
order.  Its counts must therefore equal ``run_session``'s at the same seed;
the benchmark checks that before it reports any share.

Stages (the bookkeeping between them is left out of every stage, so the
shares add up to slightly less than 1):

* ``choice_draws``  -- choice substream; Alice's bits and bases, Bob's bases.
* ``phase_lookup``  -- modulator phases from the phase table.
* ``eve``           -- the intercept-resend branch (its test alone when off).
* ``fringe_probs``  -- the phase difference, its reduction mod 2 pi and
  ``FringeCoefficients.probs``.
* ``noise_taps``    -- ring disturbance draws added to the phase difference.
* ``no_click``      -- ``no_click_probabilities`` and the outcome probabilities.
* ``detect_draws``  -- detection substream: outcome coins, assignment coins.
* ``categorical``   -- outcome codes and the double-click policy.
* ``sift_count``    -- basis matching, decoding, the disclosure subset, counts.
* ``records``       -- per-pulse ``PulseRecord`` objects (its test alone when off).
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

from loopqkd.bb84 import EveStrategy, PulseRecord
from loopqkd.loopmodel import fringe_coefficients
from loopqkd.quantumchannel import ClickOutcome, DoubleClickPolicy, RngStream, no_click_probabilities
from loopqkd.session import (
    PURPOSE_CHOICES,
    PURPOSE_DETECT,
    PURPOSE_DISCLOSE,
    PURPOSE_EVE,
    PURPOSE_NOISE_BASE,
    DisturbanceKind,
)

STAGES = (
    "choice_draws",
    "phase_lookup",
    "eve",
    "fringe_probs",
    "noise_taps",
    "no_click",
    "detect_draws",
    "categorical",
    "sift_count",
    "records",
)

_OUTCOMES = (ClickOutcome.NONE, ClickOutcome.D1, ClickOutcome.D2, ClickOutcome.BOTH)


def replay_session(config, params, noise=(), collect_records=False):
    """Replay ``run_session(config, params, noise, collect_records)`` stage by stage.

    Returns (counts, stage seconds, total seconds), where counts holds
    raw_clicks, sifted_bits, errors and disclosed_bits.
    """
    t_start = perf_counter()
    fc = fringe_coefficients(config)
    root = RngStream(params.seed)
    table = params.table
    policy = params.detectors.double_click_policy
    spent = dict.fromkeys(STAGES, 0.0)
    counts = dict.fromkeys(("raw_clicks", "sifted_bits", "errors", "disclosed_bits"), 0)
    records = [] if collect_records else None

    def lap(stage, t0):
        t1 = perf_counter()
        spent[stage] += t1 - t0
        return t1

    pulses_left = params.pulses
    batch = 0
    while pulses_left > 0:
        n = min(params.batch_size, pulses_left)

        t = perf_counter()
        g_choice = root.substream(PURPOSE_CHOICES, batch).generator
        alice_bits = g_choice.integers(0, 2, size=n)
        alice_bases = g_choice.integers(0, 2, size=n)
        bob_bases = g_choice.integers(0, 2, size=n)
        t = lap("choice_draws", t)

        phi_a = table.alice_phases[alice_bases, alice_bits]
        phi_b = table.bob_phases[bob_bases]
        t = lap("phase_lookup", t)

        eff_phi_a = phi_a
        if params.eve.strategy is not EveStrategy.OFF:
            g_eve = root.substream(PURPOSE_EVE, batch).generator
            u_attack = g_eve.random(n)
            eve_bases = g_eve.integers(0, 2, size=n)
            u_outcome = g_eve.random(n)
            attacked = u_attack < params.eve.fraction
            p_zero = np.cos((phi_a - table.bob_phases[eve_bases]) / 2.0) ** 2
            eve_bits = (u_outcome >= p_zero).astype(np.int64)
            eff_phi_a = np.where(attacked, table.alice_phases[eve_bases, eve_bits], phi_a)
        t = lap("eve", t)

        delta = eff_phi_a - phi_b
        t = lap("fringe_probs", t)

        for tap in noise:
            if tap.sigma == 0.0 and tap.kind is DisturbanceKind.GAUSSIAN:
                continue
            g_noise = root.substream(PURPOSE_NOISE_BASE + tap.tag, batch).generator
            if tap.kind is DisturbanceKind.GAUSSIAN:
                cw_pass = g_noise.normal(0.0, tap.sigma, size=n)
                ccw_pass = g_noise.normal(0.0, tap.sigma, size=n)
            else:
                cw_pass = g_noise.uniform(0.0, 2.0 * math.pi, size=n)
                ccw_pass = g_noise.uniform(0.0, 2.0 * math.pi, size=n)
            delta = delta + cw_pass - ccw_pass
        t = lap("noise_taps", t)

        p1, p2 = fc.probs(np.asarray(delta, dtype=float) % (2.0 * math.pi))
        t = lap("fringe_probs", t)

        a1, a2 = no_click_probabilities(p1, p2, params.source, params.detectors)
        q_none = a1 * a2
        q_d1 = (1.0 - a1) * a2
        q_d2 = a1 * (1.0 - a2)
        t = lap("no_click", t)

        g_detect = root.substream(PURPOSE_DETECT, batch).generator
        u = g_detect.random(n)
        if policy is DoubleClickPolicy.RANDOM_ASSIGN:
            assign = g_detect.random(n)
        t = lap("detect_draws", t)

        code = (
            (u >= q_none).astype(np.int8)
            + (u >= q_none + q_d1).astype(np.int8)
            + (u >= q_none + q_d1 + q_d2).astype(np.int8)
        )
        raw_code = code.copy()
        if policy is DoubleClickPolicy.RANDOM_ASSIGN:
            code = np.where(code == 3, np.where(assign < 0.5, 1, 2).astype(np.int8), code)
        else:
            code = np.where(code == 3, 0, code).astype(np.int8)
        t = lap("categorical", t)

        single = (code == 1) | (code == 2)
        matched = alice_bases == bob_bases
        sifted = single & matched
        decoded = code - 1
        if params.swap_detector_bits:
            decoded = 1 - decoded
        wrong = sifted & (decoded != alice_bits)
        if params.disclosed_fraction < 1.0:
            g_disc = root.substream(PURPOSE_DISCLOSE, batch).generator
            disclosed_mask = sifted & (g_disc.random(n) < params.disclosed_fraction)
        else:
            disclosed_mask = sifted
        counts["raw_clicks"] += int(np.count_nonzero(raw_code != 0))
        counts["sifted_bits"] += int(np.count_nonzero(sifted))
        counts["errors"] += int(np.count_nonzero(wrong & disclosed_mask))
        counts["disclosed_bits"] += int(np.count_nonzero(disclosed_mask))
        t = lap("sift_count", t)

        if records is not None:
            base_index = params.pulses - pulses_left
            for i in range(n):
                records.append(
                    PulseRecord(
                        index=base_index + i,
                        alice_bit=int(alice_bits[i]),
                        alice_basis=int(alice_bases[i]),
                        bob_basis=int(bob_bases[i]),
                        phi_a=float(phi_a[i]),
                        phi_b=float(phi_b[i]),
                        outcome=_OUTCOMES[int(raw_code[i])],
                        sifted=bool(sifted[i]),
                        decoded_bit=int(decoded[i]) if sifted[i] else None,
                    )
                )
        lap("records", t)

        pulses_left -= n
        batch += 1

    return counts, spent, perf_counter() - t_start

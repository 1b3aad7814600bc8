"""Seeded, vectorized Monte Carlo execution of key-exchange sessions.

Reproducibility contract: a session is driven entirely by a 64-bit master
seed.  Pulses are processed in fixed-size batches, and every consumer of
randomness draws from its own named Philox substream keyed by
(master seed, purpose << 40 | batch index):

===================  =======  =================================================
purpose              tag      draw order within a batch (arrays of batch size)
===================  =======  =================================================
protocol choices     1        alice bits, alice bases, bob bases
eavesdropper         2        attack coins, eve bases, eve outcome coins
detection            3        outcome coins [, double-click assignment coins]
disclosure subset    4        subset coins (only when disclosed_fraction < 1)
ring disturbance     16 + i   cw-pass phases, ccw-pass phases for noisy entity i
===================  =======  =================================================

Counts merge by pure addition, so results are independent of batch
processing order, and any single pulse can be re-derived from the seed,
its batch index (pulse // batch_size) and offset (pulse % batch_size).

Click sampling: each pulse draws one detection uniform and lands in the
outcome none|d1|d2|both given by how many of three cumulative thresholds
it passes.  Without a live noise tap, a pulse's phase difference is fixed
by its choice cell, (alice basis * 2 + alice bit) * 2 + bob basis, or by
Eve's re-prepared (basis, bit) in place of Alice's on an attacked pulse.
The thresholds of the 8 cells are then computed once per session
(``quantumchannel.cell_click_law``) and gathered per pulse.  A live noise
tap makes the phase difference continuous, so the thresholds are computed
per pulse from its own phase difference (``ClickLaw.at_phase``).  Both
paths, and ``expected_session``, evaluate the one expression in
``ClickLaw``, so a pulse gets bit-identical thresholds on either path.

Transcripts are columnar: on request the engine keeps each batch's choice,
phase, outcome and sifting arrays and returns them concatenated as one
``bb84.Transcript``, a few tens of bytes per pulse and no Python object
per pulse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .bb84 import (
    PHASE_CODING,
    EveConfig,
    EveStrategy,
    PhaseTable,
    SessionStats,
    Transcript,
)
from .loopmodel import LoopConfig, fringe_coefficients
from .quantumchannel import (
    ClickLaw,
    DetectorParams,
    DoubleClickPolicy,
    RngStream,
    SourceParams,
    cell_click_law,
)

PURPOSE_CHOICES = 1
PURPOSE_EVE = 2
PURPOSE_DETECT = 3
PURPOSE_DISCLOSE = 4
PURPOSE_NOISE_BASE = 16

DEFAULT_BATCH_SIZE = 1 << 17


class DisturbanceKind(str, Enum):
    GAUSSIAN = "gaussian"
    UNIFORM = "uniform"


@dataclass(frozen=True)
class NoiseTap:
    """Random phase injected by a ring module on each pulse pass.

    Both counter-propagating pulses traverse the module, each pass drawing
    its own phase, so only the difference of the two draws survives at the
    coupler.  Gaussian taps draw N(0, sigma^2) per pass; uniform taps draw
    U[0, 2pi) per pass (the strong-disturbance limit).
    """

    sigma: float
    kind: DisturbanceKind = DisturbanceKind.GAUSSIAN
    tag: int = 0

    def validate(self) -> None:
        if not (self.sigma >= 0.0):
            raise ValueError(f"disturbance sigma must be >= 0, got {self.sigma}")


@dataclass(frozen=True)
class SessionParams:
    """Everything a session needs besides the loop itself."""

    pulses: int
    seed: int
    source: SourceParams = field(default_factory=SourceParams)
    detectors: DetectorParams = field(default_factory=DetectorParams)
    eve: EveConfig = field(default_factory=EveConfig)
    disclosed_fraction: float = 1.0
    swap_detector_bits: bool = False
    table: PhaseTable = field(default_factory=lambda: PHASE_CODING)
    batch_size: int = DEFAULT_BATCH_SIZE

    def validate(self) -> None:
        if not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.pulses < 1:
            raise ValueError(f"protocol.pulses must be >= 1, got {self.pulses}")
        if not (0.0 < self.disclosed_fraction <= 1.0):
            raise ValueError(
                f"protocol.disclosed_fraction must be in (0, 1], got {self.disclosed_fraction}"
            )
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.source.validate()
        self.detectors.validate()
        self.eve.validate()


def run_session(
    config: LoopConfig,
    params: SessionParams,
    noise: tuple[NoiseTap, ...] = (),
    collect_records: bool = False,
) -> tuple[SessionStats, Transcript | None]:
    """Execute a full session: loop optics -> click sampling -> sifting counts.

    Deterministic given (config, params, noise); see the module docstring
    for the substream layout.  Without a live noise tap (a Gaussian tap
    with sigma 0 is dead and draws nothing), each pulse's thresholds are
    gathered from the 8-cell table built once from ``cell_click_law``;
    with one, they are computed per pulse by ``ClickLaw.at_phase``.  Both
    give the same thresholds for the same phase difference.
    ``collect_records`` also returns the session's columnar ``Transcript``:
    each batch's arrays are kept and concatenated once at the end, a few
    tens of bytes per pulse.
    """
    params.validate()
    for tap in noise:
        tap.validate()
    fc = fringe_coefficients(config)
    root = RngStream(params.seed)
    table = params.table
    policy = params.detectors.double_click_policy
    eve_on = params.eve.strategy is not EveStrategy.OFF
    # a zero-sigma Gaussian tap adds exactly zero phase and draws nothing
    live_taps = tuple(
        tap for tap in noise if not (tap.sigma == 0.0 and tap.kind is DisturbanceKind.GAUSSIAN)
    )
    need_phases = eve_on or collect_records or bool(live_taps)
    if not live_taps:
        cell_thresholds = cell_click_law(fc, table, params.source, params.detectors).thresholds()

    pulses_left = params.pulses
    batch = 0
    raw_clicks = 0
    sifted_bits = 0
    errors = 0
    disclosed_bits = 0
    batches: list[tuple[np.ndarray, ...]] = []

    while pulses_left > 0:
        n = min(params.batch_size, pulses_left)

        g_choice = root.substream(PURPOSE_CHOICES, batch).generator
        alice_bits = g_choice.integers(0, 2, size=n)
        alice_bases = g_choice.integers(0, 2, size=n)
        bob_bases = g_choice.integers(0, 2, size=n)

        if need_phases:
            phi_a = table.alice_phases[alice_bases, alice_bits]
            phi_b = table.bob_phases[bob_bases]

        if eve_on:
            g_eve = root.substream(PURPOSE_EVE, batch).generator
            u_attack = g_eve.random(n)
            eve_bases = g_eve.integers(0, 2, size=n)
            u_outcome = g_eve.random(n)
            attacked = u_attack < params.eve.fraction
            p_zero = np.cos((phi_a - table.bob_phases[eve_bases]) / 2.0) ** 2
            eve_bits = (u_outcome >= p_zero).astype(np.int64)

        if live_taps:
            eff_phi_a = phi_a
            if eve_on:
                eff_phi_a = np.where(attacked, table.alice_phases[eve_bases, eve_bits], phi_a)
            delta = eff_phi_a - phi_b
            for tap in live_taps:
                g_noise = root.substream(PURPOSE_NOISE_BASE + tap.tag, batch).generator
                if tap.kind is DisturbanceKind.GAUSSIAN:
                    cw_pass = g_noise.normal(0.0, tap.sigma, size=n)
                    ccw_pass = g_noise.normal(0.0, tap.sigma, size=n)
                else:
                    cw_pass = g_noise.uniform(0.0, 2.0 * math.pi, size=n)
                    ccw_pass = g_noise.uniform(0.0, 2.0 * math.pi, size=n)
                delta = delta + cw_pass - ccw_pass
            t_none, t_d1, t_d2 = ClickLaw.at_phase(
                delta, fc, params.source, params.detectors
            ).thresholds()
        else:
            cell = (alice_bases * 2 + alice_bits) * 2 + bob_bases
            if eve_on:
                cell = np.where(attacked, (eve_bases * 2 + eve_bits) * 2 + bob_bases, cell)
            t_none, t_d1, t_d2 = (t[cell] for t in cell_thresholds)

        g_detect = root.substream(PURPOSE_DETECT, batch).generator
        u = g_detect.random(n)
        # categorical in fixed order none|d1|d2|both
        raw_code = (
            (u >= t_none).astype(np.int8)
            + (u >= t_d1).astype(np.int8)
            + (u >= t_d2).astype(np.int8)
        )
        if policy is DoubleClickPolicy.RANDOM_ASSIGN:
            assign = g_detect.random(n)
            code = np.where(raw_code == 3, np.where(assign < 0.5, 1, 2).astype(np.int8), raw_code)
        else:
            code = np.where(raw_code == 3, 0, raw_code).astype(np.int8)

        single = (code == 1) | (code == 2)
        matched = alice_bases == bob_bases
        sifted = single & matched
        decoded = code - 1  # valid where single
        if params.swap_detector_bits:
            decoded = 1 - decoded
        wrong = sifted & (decoded != alice_bits)

        if params.disclosed_fraction < 1.0:
            g_disc = root.substream(PURPOSE_DISCLOSE, batch).generator
            disclosed_mask = sifted & (g_disc.random(n) < params.disclosed_fraction)
        else:
            disclosed_mask = sifted

        raw_clicks += int(np.count_nonzero(raw_code != 0))
        sifted_bits += int(np.count_nonzero(sifted))
        errors += int(np.count_nonzero(wrong & disclosed_mask))
        disclosed_bits += int(np.count_nonzero(disclosed_mask))

        if collect_records:
            batches.append(
                (alice_bits, alice_bases, bob_bases, phi_a, phi_b, raw_code, sifted, decoded)
            )

        pulses_left -= n
        batch += 1

    stats = SessionStats.from_counts(
        pulses_sent=params.pulses,
        raw_clicks=raw_clicks,
        sifted_bits=sifted_bits,
        errors=errors,
        disclosed_bits=disclosed_bits,
        rep_rate=params.source.rep_rate,
    )
    transcript = Transcript(*map(np.concatenate, zip(*batches))) if collect_records else None
    return stats, transcript

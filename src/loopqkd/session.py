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
detection            3        outcome coins [, assign coins: only when the
                              policy's ``DECODE`` row holds a coin]
disclosure subset    4        subset coins (only when disclosed_fraction < 1)
ring disturbance     16 + i   cw-pass phases, ccw-pass phases for noisy entity i
===================  =======  =================================================

Counts merge by pure addition, so results are independent of batch
processing order, and any single pulse can be re-derived from the seed,
its batch index (pulse // batch_size) and offset (pulse % batch_size).

Click sampling: each pulse draws one detection uniform and lands in the
outcome none|d1|d2|both given by how many of three cumulative thresholds
it passes.  Every step reads ``PhaseTable.cell_deltas`` through one cell
index per pulse: Eve's bit is a gather from ``PhaseTable.ideal_zero_prob``,
cos^2(delta / 2) of the 8 cells (her basis in place of Bob's), her attack
moves a pulse to the cell of her re-prepared (basis, bit), and without a
noise tap the thresholds of the 8 cells are computed once per session and
gathered.  Noise taps add their draws to the cell's difference, so those
thresholds are computed per pulse (``ClickLaw.at_phase``).  Both paths,
and ``expected_session``, evaluate the one expression in ``ClickLaw``, so a
pulse gets bit-identical thresholds on either path.  The oracle takes the
rest in expectation from the same inputs: Eve as an 8x8 cell transition
built from ``ideal_zero_prob``, and the taps as each cell's law averaged
over their differential phase (``tap_quadrature``).  The cells hold the
phases that reach the coupler, ``PhaseTable.through(loop, period)``: a
modulator whose gate also meets another pass, of the same pulse or of one
a multiple of the pulse period later, shifts both, so its party's phases
drop out (the QBER goes to 1/2 when that party is Alice).  Transcripts
record the applied phases.

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
from .quantumchannel import COIN, DECODE, ClickLaw, DetectorParams, RngStream, SourceParams

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
    coupler.  Gaussian taps draw N(0, sigma^2) per pass, and need sigma > 0;
    uniform taps draw U[0, 2pi) per pass (the strong-disturbance limit) and
    never read sigma.  A quiet module gets no tap at all
    (``loopnet.noise_taps``).
    """

    sigma: float
    kind: DisturbanceKind = DisturbanceKind.GAUSSIAN
    tag: int = 0

    def __post_init__(self) -> None:
        if self.kind is DisturbanceKind.GAUSSIAN and not (self.sigma > 0.0):
            raise ValueError(f"disturbance sigma must be > 0, got {self.sigma}")


# The trapezoid rule on the circle converges exponentially for the smooth,
# periodic click law: 64 nodes put the oracle's error at rounding.
TAP_NODES = 64


def tap_quadrature(taps: tuple[NoiseTap, ...]) -> tuple[np.ndarray, np.ndarray] | None:
    """Trapezoid nodes and weights for the taps' summed differential phase nu,
    or None without taps.  With Gaussian taps nu ~ N(0, 2 sum sigma^2), whose
    density wrapped on the circle has Fourier coefficients
    exp(-k^2 sum sigma^2); a uniform tap counts as infinite sigma, and every
    node then weighs 1 / TAP_NODES."""
    if not taps:
        return None
    sigma_sq = sum(
        math.inf if tap.kind is DisturbanceKind.UNIFORM else tap.sigma**2 for tap in taps
    )
    k = np.arange(1, TAP_NODES // 2)
    nodes = np.arange(TAP_NODES) * (2.0 * math.pi / TAP_NODES)
    return nodes, (1.0 + 2.0 * np.exp(-(k**2) * sigma_sq) @ np.cos(np.outer(k, nodes))) / TAP_NODES


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

    def __post_init__(self) -> None:
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


def run_session(
    config: LoopConfig,
    params: SessionParams,
    noise: tuple[NoiseTap, ...] = (),
    collect_records: bool = False,
) -> tuple[SessionStats, Transcript | None]:
    """Execute a full session: loop optics -> click sampling -> sifting counts.

    Deterministic given (config, params, noise); see the module docstring
    for the substream layout and the cell table every step reads.  Every
    parameter object checked itself when it was built, so nothing is
    re-checked here.  ``collect_records`` also returns the session's
    columnar ``Transcript``: each batch's arrays are kept and concatenated
    once at the end, a few tens of bytes per pulse.
    """
    fc = fringe_coefficients(config)
    root = RngStream(params.seed)
    table = params.table
    coupled = table.through(config, 1.0 / params.source.rep_rate)
    cell_deltas = coupled.cell_deltas
    decode = DECODE[params.detectors.double_click_policy]
    coin_toss = COIN in decode
    eve_on = params.eve.strategy is not EveStrategy.OFF
    if eve_on:
        eve_p_zero = coupled.ideal_zero_prob
    if not noise:
        cell_law = ClickLaw.at_phase(cell_deltas, fc, params.source, params.detectors)
        cell_thresholds = cell_law.thresholds()

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
        cell = (alice_bases * 2 + alice_bits) * 2 + bob_bases

        if eve_on:
            g_eve = root.substream(PURPOSE_EVE, batch).generator
            u_attack = g_eve.random(n)
            eve_bases = g_eve.integers(0, 2, size=n)
            u_outcome = g_eve.random(n)
            eve_bits = u_outcome >= eve_p_zero[cell - bob_bases + eve_bases]
            attacked = u_attack < params.eve.fraction
            cell = np.where(attacked, (eve_bases * 2 + eve_bits) * 2 + bob_bases, cell)

        if noise:
            delta = cell_deltas[cell]
            for tap in noise:
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
            t_none, t_d1, t_d2 = (t[cell] for t in cell_thresholds)

        g_detect = root.substream(PURPOSE_DETECT, batch).generator
        u = g_detect.random(n)
        # categorical in fixed order none|d1|d2|both
        raw_code = (
            (u >= t_none).astype(np.int8)
            + (u >= t_d1).astype(np.int8)
            + (u >= t_d2).astype(np.int8)
        )
        decoded = np.take(decode, raw_code.astype(np.intp))
        if coin_toss:
            coin = g_detect.random(n)
            tossed = decoded == COIN
            decoded[tossed] = coin[tossed] >= 0.5

        sifted = (decoded >= 0) & (alice_bases == bob_bases)
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
            phi_a = table.alice_phases[alice_bases, alice_bits]
            phi_b = table.bob_phases[bob_bases]
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

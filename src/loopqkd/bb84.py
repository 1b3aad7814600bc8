"""Phase-coded BB84 over the loop interferometer.

Alice encodes (basis, bit) as a phase shift on her modulator, Bob chooses
a measurement basis as a phase shift on his, and the interferometer routes
the photon to detector 1 or 2 according to the difference.  With matched
bases the difference is 0 or pi and the detector identifies the bit; with
mismatched bases it is +-pi/2 and the click is uninformative.

The session engine (``session.run_session``) draws, detects and sifts all
pulses in vectorized form and, on request, returns them as a columnar
``Transcript``.  ``PulseRecord`` and ``sift`` are the row-wise reference
recount: a transcript read back row by row must sift to the engine's counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

import numpy as np

from .loopmodel import DEFAULT_GATE_WIDTH, LoopConfig, modulator_separation
from .quantumchannel import ClickOutcome

HALF_PI = math.pi / 2.0

Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class PhaseTable:
    """Modulator phases for each (basis, bit) choice.

    Alice: basis 0 encodes bits as {0, pi}, basis 1 as {pi/2, 3pi/2}.
    Bob: basis 0 measures with 0, basis 1 with pi/2.  Matched bases give a
    difference in {0, pi} (deterministic port), mismatched give +-pi/2
    (both ports equally likely).  Only differences are observable, so any
    global phase offset yields an equivalent table.
    """

    alice_phases: np.ndarray = field(
        default_factory=lambda: np.array(
            [[0.0, math.pi], [HALF_PI, 3.0 * HALF_PI]], dtype=float
        )
    )
    bob_phases: np.ndarray = field(
        default_factory=lambda: np.array([0.0, HALF_PI], dtype=float)
    )

    @property
    def cell_deltas(self) -> np.ndarray:
        """Phase differences of the 8 protocol choice cells: cell
        ``(alice_basis * 2 + alice_bit) * 2 + bob_basis`` holds
        ``alice_phases[alice_basis, alice_bit] - bob_phases[bob_basis]``."""
        return (self.alice_phases.reshape(4, 1) - self.bob_phases.reshape(1, 2)).reshape(8)

    @property
    def ideal_zero_prob(self) -> np.ndarray:
        """cos^2(cell_deltas / 2), the chance of bit 0 on an ideal fringe: Eve's
        measurement, in the session engine and in the oracle."""
        return np.cos(self.cell_deltas / 2.0) ** 2

    def through(self, loop: LoopConfig, period: float) -> "PhaseTable":
        """The phases that reach the coupler over ``loop`` for pulses ``period`` s apart.

        A party's gate shifts one half of a pulse alone only if no other
        half passes its modulator within ``DEFAULT_GATE_WIDTH``.  A pulse's
        halves pass it the modulator separation apart, and later pulses
        follow at multiples of the period, so the separation must be a gate
        width from every such multiple.  Closer, the party's phase codes no
        key, and its phases become 0.  The 0/1 factor is exact, so a
        separated loop keeps every phase.
        """
        alice, bob = (
            abs(math.remainder(modulator_separation(loop, owner), period)) >= DEFAULT_GATE_WIDTH
            for owner in ("alice", "bob")
        )
        return PhaseTable(self.alice_phases * float(alice), self.bob_phases * float(bob))


PHASE_CODING = PhaseTable()


class EveStrategy(str, Enum):
    OFF = "off"
    INTERCEPT_RESEND = "intercept_resend"


@dataclass(frozen=True)
class EveConfig:
    """Intercept-resend eavesdropper attacking a fraction of the pulses."""

    strategy: EveStrategy = EveStrategy.OFF
    fraction: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.fraction <= 1.0):
            raise ValueError(f"eve.fraction must be in [0, 1], got {self.fraction}")
        if self.strategy is EveStrategy.OFF and self.fraction > 0.0:
            raise ValueError(
                f"eve.fraction {self.fraction:g} has no effect: "
                "eve.strategy is off, so no pulse is attacked"
            )


@dataclass(frozen=True)
class PulseRecord:
    """Everything known about one pulse after the public discussion."""

    index: int
    alice_bit: int
    alice_basis: int
    bob_basis: int
    phi_a: float
    phi_b: float
    outcome: ClickOutcome
    sifted: bool
    decoded_bit: Optional[int]


@dataclass(frozen=True, eq=False)
class Transcript:
    """Every pulse of a session, one NumPy array per column, row i = pulse i.

    ``alice_bits``, ``alice_bases`` and ``bob_bases`` are ``uint8`` 0/1.
    ``outcome`` is the ``int8`` gate outcome code before the double-click
    policy (0 none, 1 d1, 2 d2, 3 both, the order of ``ClickOutcome``).
    ``sifted`` is ``bool``.  ``decoded`` is Bob's ``int8`` bit, the
    outcome's entry in the policy's ``quantumchannel.DECODE`` row with any
    coin tossed (detector 1 -> 0, detector 2 -> 1; flipped under
    ``swap_detector_bits``), and -1 where no gate clicked; it is meaningful
    only where ``sifted``.  ``table`` is the ``PhaseTable`` applied
    (``SessionParams.table``, not the coupled one); the phases of pulse i,
    ``table.alice_phases[alice_bases[i], alice_bits[i]]`` and
    ``table.bob_phases[bob_bases[i]]``, are gathered where they are read.
    """

    alice_bits: np.ndarray
    alice_bases: np.ndarray
    bob_bases: np.ndarray
    outcome: np.ndarray
    sifted: np.ndarray
    decoded: np.ndarray
    table: PhaseTable

    @classmethod
    def empty(cls, n: int, table: PhaseTable) -> "Transcript":
        """``n`` pulses on which no gate clicked, to be filled in place."""
        choices = (np.zeros(n, np.uint8) for _ in range(3))
        no_click = np.zeros(n, np.int8), np.zeros(n, bool), np.full(n, -1, np.int8)
        return cls(*choices, *no_click, table)

    def __len__(self) -> int:
        return len(self.outcome)


@dataclass(frozen=True)
class SessionStats:
    """Counting summary of one key-exchange session.

    ``raw_rate`` is sifted bits per second (before error correction);
    ``qber`` is estimated on the disclosed subset of the sifted string
    (the whole string by default) with a 95% Wilson interval.
    """

    pulses_sent: int
    raw_clicks: int
    sifted_bits: int
    errors: int
    disclosed_bits: int
    raw_rate: float
    qber: float
    qber_low: float
    qber_high: float

    @property
    def qber_defined(self) -> bool:
        return self.disclosed_bits > 0

    @classmethod
    def from_counts(
        cls,
        pulses_sent: int,
        raw_clicks: int,
        sifted_bits: int,
        errors: int,
        disclosed_bits: int,
        rep_rate: float,
    ) -> "SessionStats":
        if errors > sifted_bits:
            raise ValueError("errors cannot exceed sifted bits")
        raw_rate = sifted_bits * rep_rate / pulses_sent if pulses_sent else 0.0
        if disclosed_bits > 0:
            qber = errors / disclosed_bits
            lo, hi = wilson_interval(errors, disclosed_bits)
        else:
            qber = lo = hi = math.nan
        return cls(
            pulses_sent=pulses_sent,
            raw_clicks=raw_clicks,
            sifted_bits=sifted_bits,
            errors=errors,
            disclosed_bits=disclosed_bits,
            raw_rate=raw_rate,
            qber=qber,
            qber_low=lo,
            qber_high=hi,
        )


def wilson_interval(k: int, n: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion k/n."""
    if n <= 0:
        return (math.nan, math.nan)
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return (lo, hi)


@dataclass(frozen=True)
class SiftResult:
    stats: SessionStats


def sift(records: Iterable[PulseRecord], rep_rate: float) -> SiftResult:
    """Basis reconciliation, row by row: the reference recount of a
    transcript.  Counts the clicks, the pulses whose record says they were
    sifted, and the errors among those; every sifted bit is disclosed."""
    pulses = raw_clicks = sifted_bits = errors = 0
    for r in records:
        pulses += 1
        raw_clicks += r.outcome is not ClickOutcome.NONE
        if r.sifted:
            if r.decoded_bit is None:
                raise ValueError(f"record {r.index} is sifted but carries no decoded bit")
            sifted_bits += 1
            errors += int(r.decoded_bit != r.alice_bit)
    return SiftResult(
        SessionStats.from_counts(pulses, raw_clicks, sifted_bits, errors, sifted_bits, rep_rate)
    )

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

from .quantumchannel import ClickOutcome, RngStream

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

    def alice(self, basis: int, bit: int) -> float:
        return float(self.alice_phases[basis, bit])

    def bob(self, basis: int) -> float:
        return float(self.bob_phases[basis])


PHASE_CODING = PhaseTable()


class EveStrategy(str, Enum):
    OFF = "off"
    INTERCEPT_RESEND = "intercept_resend"


@dataclass(frozen=True)
class EveConfig:
    """Intercept-resend eavesdropper attacking a fraction of the pulses."""

    strategy: EveStrategy = EveStrategy.OFF
    fraction: float = 0.0

    def validate(self) -> None:
        if not (0.0 <= self.fraction <= 1.0):
            raise ValueError(f"eve.fraction must be in [0, 1], got {self.fraction}")

    @property
    def active(self) -> bool:
        return self.strategy is EveStrategy.INTERCEPT_RESEND and self.fraction > 0.0


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

    ``outcome`` is the gate outcome code before the double-click policy
    (0 none, 1 d1, 2 d2, 3 both, the order of ``ClickOutcome``).
    ``decoded`` is Bob's bit after the policy, detector 1 -> 0 and
    detector 2 -> 1 (flipped under ``swap_detector_bits``); it is
    meaningful only where ``sifted``.
    """

    alice_bits: np.ndarray
    alice_bases: np.ndarray
    bob_bases: np.ndarray
    phi_a: np.ndarray
    phi_b: np.ndarray
    outcome: np.ndarray
    sifted: np.ndarray
    decoded: np.ndarray

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
    alice_key: np.ndarray
    bob_key: np.ndarray
    stats: SessionStats


def sift(
    records: Iterable[PulseRecord],
    rep_rate: float,
    disclosed_fraction: float = 1.0,
    rng: Optional[RngStream] = None,
) -> SiftResult:
    """Basis reconciliation: keep single-click, matched-basis pulses.

    Returns both parties' sifted keys (equal length) and the session
    statistics.  The error count and QBER come from the disclosed subset:
    the full sifted string by default, or a random fraction of it when
    ``disclosed_fraction`` < 1 (requires ``rng``), mimicking the usual
    practice of sacrificing a sample of the key.
    """
    if not (0.0 < disclosed_fraction <= 1.0):
        raise ValueError(f"disclosed_fraction must be in (0, 1], got {disclosed_fraction}")
    records = list(records)
    alice_bits = []
    bob_bits = []
    raw_clicks = 0
    for r in records:
        if r.outcome is not ClickOutcome.NONE:
            raw_clicks += 1
        if r.sifted:
            if r.decoded_bit is None:
                raise ValueError(f"record {r.index} is sifted but carries no decoded bit")
            alice_bits.append(r.alice_bit)
            bob_bits.append(r.decoded_bit)
    alice_key = np.array(alice_bits, dtype=np.int8)
    bob_key = np.array(bob_bits, dtype=np.int8)
    mismatches = alice_key != bob_key
    if disclosed_fraction < 1.0:
        if rng is None:
            raise ValueError("disclosed_fraction < 1 requires an rng for the subset draw")
        mask = rng.generator.random(len(alice_key)) < disclosed_fraction
        disclosed = int(np.count_nonzero(mask))
        errors = int(np.count_nonzero(mismatches & mask))
    else:
        disclosed = len(alice_key)
        errors = int(np.count_nonzero(mismatches))
    stats = SessionStats.from_counts(
        pulses_sent=len(records),
        raw_clicks=raw_clicks,
        sifted_bits=len(alice_key),
        errors=errors,
        disclosed_bits=disclosed,
        rep_rate=rep_rate,
    )
    return SiftResult(alice_key=alice_key, bob_key=bob_key, stats=stats)


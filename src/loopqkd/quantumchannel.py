"""Weak-pulse photon statistics and detector click modeling.

An attenuated laser pulse carries a Poisson-distributed photon number with
mean mu.  Each photon independently reaches detector i with probability
p_i (from the loop optics) and fires it with probability eta, so the
photon-induced no-click probability at detector i is exp(-mu * eta * p_i)
and the two detectors are independent (Poisson thinning).  Dark counts add
an independent per-gate click probability to each detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .loopmodel import FringeCoefficients, LoopConfig, fringe_coefficients

_MASK64 = (1 << 64) - 1


class DoubleClickPolicy(str, Enum):
    DISCARD = "discard"
    RANDOM_ASSIGN = "random_assign"


class ClickOutcome(Enum):
    """Gate outcomes, in the order of the engine's outcome codes 0..3."""

    NONE = "none"
    D1 = "d1"
    D2 = "d2"
    BOTH = "both"


@dataclass(frozen=True)
class SourceParams:
    """Pulsed weak-coherent source.

    mu: mean photon number per pulse (after the in-loop attenuator).
    rep_rate: pulse repetition rate in Hz.
    wavelength: meters; carried for reporting, the optics model is
    wavelength-independent.
    """

    mu: float = 0.1
    rep_rate: float = 100e3
    wavelength: float = 830e-9

    def validate(self) -> None:
        if not (self.mu >= 0.0 and math.isfinite(self.mu)):
            raise ValueError(f"source.mu must be >= 0, got {self.mu}")
        if not (self.rep_rate > 0.0):
            raise ValueError(f"source.rep_rate must be > 0, got {self.rep_rate}")
        if not (self.wavelength > 0.0):
            raise ValueError(f"source.wavelength must be > 0, got {self.wavelength}")


@dataclass(frozen=True)
class DetectorParams:
    """Gated single-photon avalanche detectors, one per output port.

    efficiency: photon -> avalanche probability, identical for both.
    dark_prob: dark click probability per gate per detector.
    double_click_policy: what to do when both detectors fire in one gate.
    """

    efficiency: float = 1.0
    dark_prob: float = 0.0
    double_click_policy: DoubleClickPolicy = DoubleClickPolicy.DISCARD

    def validate(self) -> None:
        if not (0.0 <= self.efficiency <= 1.0):
            raise ValueError(f"detectors.efficiency must be in [0, 1], got {self.efficiency}")
        if not (0.0 <= self.dark_prob < 1.0):
            raise ValueError(f"detectors.dark_prob must be in [0, 1), got {self.dark_prob}")


class RngStream:
    """Deterministic counter-based random stream (Philox 4x64).

    The 128-bit Philox key is (seed, stream), so any number of named
    substreams can be derived from one master seed without coordination;
    identical (seed, stream) always reproduces the same draw sequence
    regardless of what other streams were consumed.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64
        # an explicit uint64 key: a list would pass through int64, and a seed
        # >= 2**63 would be cast to float64 and collide with its neighbours
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self.generator = np.random.Generator(np.random.Philox(key=key))

    def substream(self, purpose: int, index: int = 0) -> "RngStream":
        """Derived stream: purpose tag in the high bits, batch index in the low."""
        return RngStream(self.seed, ((int(purpose) & 0xFFFFFF) << 40) | (int(index) & ((1 << 40) - 1)))


def no_click_probabilities(p1, p2, src: SourceParams, det: DetectorParams):
    """Per-detector total no-click probabilities (a1, a2); accepts arrays."""
    me = src.mu * det.efficiency
    a1 = (1.0 - det.dark_prob) * np.exp(-me * np.asarray(p1, dtype=float))
    a2 = (1.0 - det.dark_prob) * np.exp(-me * np.asarray(p2, dtype=float))
    return a1, a2


@dataclass(frozen=True)
class ClickLaw:
    """Joint law of the four gate outcomes, elementwise over arrays.

    The detectors are independent, so the outcomes factorize over their
    no-click probabilities ``a1`` and ``a2``.  This is the one expression of
    the click law: the session engine samples from ``thresholds()`` (per
    choice cell, or per pulse under noise taps), and ``expected_session``
    reads the outcome probabilities.
    """

    a1: np.ndarray | float
    a2: np.ndarray | float

    @classmethod
    def at_phase(
        cls, delta, fc: FringeCoefficients, src: SourceParams, det: DetectorParams
    ) -> "ClickLaw":
        """Law at phase differences ``delta`` (radians) across a loop's fringe."""
        p1, p2 = fc.probs(np.asarray(delta, dtype=float) % (2.0 * math.pi))
        return cls(*no_click_probabilities(p1, p2, src, det))

    @property
    def q_none(self):
        return self.a1 * self.a2

    @property
    def q_d1(self):
        return (1.0 - self.a1) * self.a2

    @property
    def q_d2(self):
        return self.a1 * (1.0 - self.a2)

    @property
    def q_both(self):
        return (1.0 - self.a1) * (1.0 - self.a2)

    def thresholds(self):
        """Cumulative thresholds of the categorical order none | d1 | d2 | both.

        A uniform draw u falls in outcome k (0 = none ... 3 = both) when it
        is >= exactly k of the three thresholds.
        """
        q_none = self.q_none
        t_d1 = q_none + self.q_d1
        return q_none, t_d1, t_d1 + self.q_d2


def cell_click_law(
    fc: FringeCoefficients, phase_table, src: SourceParams, det: DetectorParams
) -> ClickLaw:
    """Click law of the 8 protocol choice cells (1-D arrays of length 8).

    Cell ``(alice_basis * 2 + alice_bit) * 2 + bob_basis`` holds the phase
    difference ``alice_phases[alice_basis, alice_bit] - bob_phases[bob_basis]``
    of ``phase_table`` (a ``bb84.PhaseTable``); an intercept-resend pulse
    falls in the cell of Eve's re-prepared (basis, bit) instead.
    """
    delta = (phase_table.alice_phases.reshape(4, 1) - phase_table.bob_phases.reshape(1, 2)).reshape(8)
    return ClickLaw.at_phase(delta, fc, src, det)


@dataclass(frozen=True)
class ExpectedSession:
    """Closed-form per-pulse expectations for a BB84 session over a given loop."""

    sifted_prob: float
    error_prob: float
    raw_click_prob: float
    raw_rate: float
    qber: float


def expected_session(
    config: LoopConfig,
    phase_table,
    src: SourceParams,
    det: DetectorParams,
) -> ExpectedSession:
    """Exact session expectations by enumerating the 8 equally likely choice cells.

    ``phase_table`` supplies the protocol's phase coding (a ``bb84.PhaseTable``).
    The cells' click law is ``cell_click_law``, the same table whose
    thresholds the session engine samples from.  Averages over uniform
    independent bit and basis choices, applies the double-click policy, and
    counts an error when a sifted click decodes to the wrong bit
    (detector 1 -> 0, detector 2 -> 1).
    """
    src.validate()
    det.validate()
    law = cell_click_law(fringe_coefficients(config), phase_table, src, det)
    q_d1, q_d2, q_both = law.q_d1.tolist(), law.q_d2.tolist(), law.q_both.tolist()
    policy = det.double_click_policy
    sifted = 0.0
    errors = 0.0
    clicks = 0.0
    w = 1.0 / 8.0
    for a_basis in (0, 1):
        for a_bit in (0, 1):
            for b_basis in (0, 1):
                c = (a_basis * 2 + a_bit) * 2 + b_basis
                clicks += w * (q_d1[c] + q_d2[c] + q_both[c])
                if a_basis != b_basis:
                    continue
                wrong = q_d2[c] if a_bit == 0 else q_d1[c]
                if policy is DoubleClickPolicy.DISCARD:
                    sifted += w * (q_d1[c] + q_d2[c])
                    errors += w * wrong
                else:
                    sifted += w * (q_d1[c] + q_d2[c] + q_both[c])
                    errors += w * (wrong + 0.5 * q_both[c])
    return ExpectedSession(
        sifted_prob=sifted,
        error_prob=errors,
        raw_click_prob=clicks,
        raw_rate=src.rep_rate * sifted,
        qber=errors / sifted if sifted > 0.0 else math.nan,
    )

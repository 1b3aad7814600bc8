"""Jones calculus for fully polarized light in single-mode fiber loops.

Conventions used throughout:

* States are 2-component complex amplitude vectors (e_x, e_y) in a fixed
  lab basis; power is |e_x|^2 + |e_y|^2.
* Operators are 2x2 complex matrices acting on column vectors.
* Backward transmission through a reciprocal passive element is the
  transpose of the forward matrix, in the same fixed basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

# Double-precision tolerance of exact algebraic identities.
ALGEBRA_TOL = 1e-12


@dataclass(frozen=True)
class JonesState:
    """Polarization amplitude of a single pulse, (e_x, e_y), dimensionless."""

    e_x: complex
    e_y: complex

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.e_x, self.e_y], dtype=complex)

    def norm_sq(self) -> float:
        # products overflow to inf; ** and abs() would raise OverflowError
        return sum(c.real * c.real + c.imag * c.imag for c in (self.e_x, self.e_y))

    def is_normalized(self, tol: float = ALGEBRA_TOL) -> bool:
        return math.isfinite(self.norm_sq()) and abs(self.norm_sq() - 1.0) <= tol


@dataclass(frozen=True, eq=False)
class JonesOperator:
    """A 2x2 complex Jones matrix (retarder, rotator, diattenuator, ...)."""

    m: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.m, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"Jones operator must be 2x2, got shape {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    @classmethod
    def identity(cls) -> "JonesOperator":
        return cls(np.eye(2, dtype=complex))

    def singular_values(self) -> np.ndarray:
        return np.linalg.svd(self.m, compute_uv=False)

    @cached_property
    def _largest_singular_value(self) -> float:
        # the matrix is read-only, and rings share IDENTITY across every link
        return float(self.singular_values().max())

    def is_diattenuator(self, tol: float = ALGEBRA_TOL) -> bool:
        """True when both singular values lie in [0, 1] (passive element)."""
        return self._largest_singular_value <= 1.0 + tol


IDENTITY = JonesOperator.identity()

H_POL = JonesState(1.0 + 0.0j, 0.0 + 0.0j)


def rotation(angle: float) -> np.ndarray:
    """Coordinate rotation matrix R(angle) = [[c, -s], [s, c]]."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rotator(angle: float) -> JonesOperator:
    """Polarization rotator (circular birefringence, e.g. fiber twist).

    Antisymmetric for angle not a multiple of pi, so a counter-propagating
    loop does *not* cancel it -- this is the element used to dial in a
    target interference visibility.
    """
    return JonesOperator(rotation(angle))


def retarder(delta: float, theta: float = 0.0) -> JonesOperator:
    """Linear retarder: phase delay `delta` on the slow axis, fast axis at `theta`."""
    d = np.array([[1.0, 0.0], [0.0, np.exp(1j * delta)]], dtype=complex)
    r = rotation(theta)
    return JonesOperator(r @ d @ r.T)


def diattenuator(t_max: float, t_min: float, theta: float = 0.0) -> JonesOperator:
    """Partial polarizer with amplitude transmittances (t_max, t_min) on axes at theta.

    Models polarization-dependent loss; passivity requires both values in [0, 1].
    """
    if not (0.0 <= t_min <= t_max <= 1.0):
        raise ValueError("diattenuator requires 0 <= t_min <= t_max <= 1")
    d = np.array([[t_max, 0.0], [0.0, t_min]], dtype=complex)
    r = rotation(theta)
    return JonesOperator(r @ d @ r.T)


def random_unitary(rng: np.random.Generator) -> JonesOperator:
    """Haar-random 2x2 unitary (QR of a complex Gaussian matrix)."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return JonesOperator(q * ph)


def compose(ops: Sequence[JonesOperator]) -> JonesOperator:
    """Product of operators applied in traversal order (first element acts first)."""
    if len(ops) == 0:
        raise ValueError("compose requires at least one operator")
    total = ops[0].m
    for op in ops[1:]:
        total = op.m @ total
    return JonesOperator(total)


def backward(op: JonesOperator) -> JonesOperator:
    """Jones matrix for traversing a reciprocal element in the reverse direction.

    Equal to the transpose of the forward matrix in the fixed lab basis;
    holds for retarders, rotators and diattenuators alike.
    """
    return JonesOperator(op.m.T)

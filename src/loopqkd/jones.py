"""Jones calculus for fully polarized light in single-mode fiber loops.

Conventions used throughout:

* States are 2-component complex amplitude vectors (e_x, e_y) in a fixed
  lab basis; power is |e_x|^2 + |e_y|^2.
* Operators are 2x2 complex matrices acting on column vectors.
* Backward transmission through a reciprocal passive element is the
  transpose of the forward matrix, in the same fixed basis.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

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
        return abs(self.e_x) ** 2 + abs(self.e_y) ** 2

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

    def apply(self, state: JonesState) -> JonesState:
        v = self.m @ state.vector
        return JonesState(complex(v[0]), complex(v[1]))

    def is_unitary(self, tol: float = ALGEBRA_TOL) -> bool:
        return bool(np.max(np.abs(self.m.conj().T @ self.m - np.eye(2))) <= tol)

    def singular_values(self) -> np.ndarray:
        return np.linalg.svd(self.m, compute_uv=False)

    def is_diattenuator(self, tol: float = ALGEBRA_TOL) -> bool:
        """True when both singular values lie in [0, 1] (passive element)."""
        s = self.singular_values()
        return bool(np.all(s <= 1.0 + tol))


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


def qwp(theta: float) -> JonesOperator:
    """Quarter-wave plate with fast axis at angle theta."""
    return retarder(math.pi / 2.0, theta)


def hwp(theta: float) -> JonesOperator:
    """Half-wave plate with fast axis at angle theta."""
    return retarder(math.pi, theta)


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


def visibility(state: JonesState, u_cw: JonesOperator, u_ccw: JonesOperator) -> float:
    """Interference contrast between the two counter-propagating paths.

    Returns |<u_ccw s, u_cw s>|, the magnitude of the cross term when the
    clockwise and counterclockwise amplitudes recombine.  For unitary paths
    this is the fringe visibility in [0, 1]; it equals 1 exactly when
    u_ccw^dag u_cw maps the input onto itself up to a phase.
    """
    if not state.is_normalized():
        raise ValueError("visibility requires a normalized input state")
    a = u_ccw.m @ state.vector
    b = u_cw.m @ state.vector
    return float(abs(np.vdot(a, b)))


@dataclass(frozen=True)
class PcSetting:
    """Three-paddle polarization controller angles (quarter, half, quarter waveplates).

    Angles are reduced to [0, 2*pi) on construction.
    """

    theta1: float
    theta2: float
    theta3: float

    def __post_init__(self) -> None:
        for name in ("theta1", "theta2", "theta3"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, v % TWO_PI)

    @property
    def angles(self) -> tuple[float, float, float]:
        return (self.theta1, self.theta2, self.theta3)


def pc_matrix(setting: PcSetting) -> JonesOperator:
    """Jones matrix of the controller: QWP(theta3) -> HWP(theta2) -> QWP(theta1).

    The quarter-half-quarter stack reaches every SU(2) element up to a global
    phase, so an ideal controller can map any input polarization to any
    output polarization.
    """
    return compose([qwp(setting.theta3), hwp(setting.theta2), qwp(setting.theta1)])


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f: Callable[[float], float], lo: float, hi: float, iters: int = 72) -> tuple[float, float]:
    """Golden-section search for the maximum of f on [lo, hi]."""
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = f(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def _line_max(f: Callable[[float], float], lo: float, hi: float, coarse: int = 17) -> tuple[float, float]:
    """Maximize f on [lo, hi]: coarse scan to bracket, then golden-section refine."""
    xs = np.linspace(lo, hi, coarse)
    vals = [f(float(x)) for x in xs]
    k = int(np.argmax(vals))
    a = xs[max(k - 1, 0)]
    b = xs[min(k + 1, coarse - 1)]
    x, v = _golden_max(f, float(a), float(b))
    if vals[k] > v:
        return float(xs[k]), vals[k]
    return x, v


# Coordinate-descent restarts: corners of a 2x2x2 lattice in the angle box.
_LATTICE_SEEDS = tuple(itertools.product((math.pi / 2.0, 3.0 * math.pi / 2.0), repeat=3))

_MAX_SWEEPS = 50


def optimize_pc(
    objective: Callable[[PcSetting], float],
    initial: PcSetting,
    tol: float,
) -> PcSetting:
    """Maximize a controller objective by coordinate descent over the three paddle angles.

    Each coordinate pass runs a scan-bracketed golden-section line search over a
    full period around the current angle; the descent restarts from `initial`
    and from 8 lattice seeds and keeps the best result.  Deterministic: there
    is no randomness in the search.

    Args:
        objective: setting -> real, assumed 2*pi-periodic per angle and bounded.
        initial: starting setting (kept as one of the restart seeds).
        tol: stop a descent once a full sweep improves the objective by < tol.

    Raises:
        ValueError: if the objective returns a non-finite value anywhere.
    """
    if not (tol > 0.0):
        raise ValueError("tol must be positive")

    def evaluate(angles: list[float]) -> float:
        v = float(objective(PcSetting(*angles)))
        if not math.isfinite(v):
            raise ValueError(f"objective returned non-finite value {v!r} at {angles}")
        return v

    best_angles: list[float] | None = None
    best_val = -math.inf
    for seed in (initial.angles,) + _LATTICE_SEEDS:
        angles = list(seed)
        val = evaluate(angles)
        for _ in range(_MAX_SWEEPS):
            prev = val
            for i in range(3):
                center = angles[i]

                def f(x: float, i: int = i) -> float:
                    trial = list(angles)
                    trial[i] = x
                    return evaluate(trial)

                x, v = _line_max(f, center - math.pi, center + math.pi)
                if v > val:
                    angles[i] = x
                    val = v
            if val - prev < tol:
                break
        if val > best_val:
            best_val = val
            best_angles = angles
    assert best_angles is not None
    return PcSetting(*best_angles)

"""Deterministic optics of the counter-propagating fiber loop.

The loop is an ordered chain of components traversed clockwise from one
coupler port to the other; the counterclockwise pulse traverses the same
chain in reverse, seeing each element's transposed (reciprocal) Jones
matrix.  The two returning amplitudes recombine at the coupler and the
interference pattern routes the photon to detector 1 (back through the
circulator) or detector 2, depending on the modulator phase difference.

Coupler convention: power fraction ``coupler_ratio`` is cross-coupled with
a +90 degree phase (standard lossless 2x2 coupler), the rest goes straight
through.  The clockwise pulse is launched from the straight-through port
and carries Alice's phase shift; the counterclockwise pulse is launched
from the cross port and carries Bob's.

Timing: both pulses leave the coupler together, so they pass a modulator
|fiber before it - fiber after it| apart (``modulator_separation``).  The
delay fiber on Bob's side keeps them apart at Alice's modulator.  Closer
than a gate width, a modulator shifts both pulses and its phase cancels
at the coupler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .jones import H_POL, IDENTITY, JonesOperator, JonesState, backward, compose

SPEED_OF_LIGHT = 299_792_458.0  # m/s, vacuum

# Silica fiber near 830 nm; used for pulse time-of-flight.
DEFAULT_GROUP_INDEX = 1.468

# Modulators are gated: a modulator shifts one pulse alone only if the two
# pulses pass it at least this far apart (``bb84.PhaseTable.through``).
DEFAULT_GATE_WIDTH = 100e-9  # s


class ComponentKind(str, Enum):
    FIBER = "fiber"
    DELAY_FIBER = "delay_fiber"
    PHASE_MODULATOR = "phase_modulator"
    ATTENUATOR = "attenuator"
    PDL_ELEMENT = "pdl_element"


FIBER_KINDS = (ComponentKind.FIBER, ComponentKind.DELAY_FIBER)


@dataclass(frozen=True, eq=False)
class Component:
    """One loop element in clockwise traversal order.

    ``length`` and ``loss_db_per_km`` apply to fiber kinds, ``owner`` to
    phase modulators, ``transmittance`` (power) to the attenuator.  The
    Jones matrix carries birefringence or polarization-dependent loss;
    modulator phase shifts are applied per pulse, not here.
    """

    kind: ComponentKind
    label: str = ""
    length: float = 0.0
    loss_db_per_km: float = 0.0
    jones: JonesOperator = IDENTITY
    owner: str | None = None
    transmittance: float = 1.0

    def __post_init__(self) -> None:
        name = self.label or self.kind.value
        if self.kind in FIBER_KINDS:
            if not (self.length >= 0.0 and math.isfinite(self.length)):
                raise ValueError(f"{name}: fiber length must be >= 0 m, got {self.length}")
            if not (self.loss_db_per_km >= 0.0):
                raise ValueError(f"{name}: loss_db_per_km must be >= 0, got {self.loss_db_per_km}")
        elif self.length != 0.0:
            raise ValueError(f"{name}: only fiber components have length")
        if self.kind is ComponentKind.PHASE_MODULATOR:
            if self.owner not in ("alice", "bob"):
                raise ValueError(f"{name}: phase modulator owner must be 'alice' or 'bob'")
        elif self.owner is not None:
            raise ValueError(f"{name}: only phase modulators have an owner")
        if self.kind is ComponentKind.ATTENUATOR:
            if not (0.0 < self.transmittance <= 1.0):
                raise ValueError(
                    f"{name}: attenuator transmittance must be in (0, 1], got {self.transmittance}"
                )
        elif self.transmittance != 1.0:
            raise ValueError(f"{name}: only attenuators have a transmittance setting")
        # Every element must be passive: no singular value above 1.
        if not self.jones.is_diattenuator(tol=1e-9):
            raise ValueError(f"{name}: Jones matrix has singular value > 1 (active element)")

    def power_transmittance(self) -> float:
        """Scalar (polarization-independent) power transmittance of this element."""
        if self.kind in FIBER_KINDS:
            return 10.0 ** (-self.loss_db_per_km * (self.length / 1000.0) / 10.0)
        if self.kind is ComponentKind.ATTENUATOR:
            return self.transmittance
        return 1.0


@dataclass(frozen=True, eq=False)
class LoopConfig:
    """The full loop: components in clockwise order between the coupler ports.

    Exactly one phase modulator per party, one attenuator, and one delay
    fiber are required, and ``source_pol`` must be normalized.
    ``attenuator_index`` and ``delay_index`` are derived from the
    component list.
    """

    components: tuple[Component, ...]
    coupler_ratio: float = 0.5
    source_pol: JonesState = H_POL
    attenuator_index: int = field(init=False)
    delay_index: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        if not (0.0 < self.coupler_ratio < 1.0):
            raise ValueError(f"coupler_ratio must be in (0, 1), got {self.coupler_ratio}")
        # a constructed Component gives an owner to phase modulators only
        owners = [c.owner for c in self.components]
        for owner in ("alice", "bob"):
            if owners.count(owner) != 1:
                raise ValueError(
                    f"loop must contain exactly one phase modulator owned by {owner}, "
                    f"got {owners.count(owner)}"
                )
        kinds = [c.kind for c in self.components]
        for kind in (ComponentKind.ATTENUATOR, ComponentKind.DELAY_FIBER):
            if kinds.count(kind) != 1:
                name = kind.value.replace("_", " ")
                raise ValueError(f"loop must contain exactly one {name}, got {kinds.count(kind)}")
        if not self.source_pol.is_normalized(tol=1e-9):
            raise ValueError("source_pol must be normalized")
        object.__setattr__(self, "attenuator_index", kinds.index(ComponentKind.ATTENUATOR))
        object.__setattr__(self, "delay_index", kinds.index(ComponentKind.DELAY_FIBER))


@dataclass(frozen=True)
class FringeCoefficients:
    """Precomputed interference terms: p1/p2 as functions of delta_phi only.

    With v_cw / v_ccw the returning amplitudes (modulator phases excluded),
    ``power_ccw`` = |v_ccw|^2, ``power_cw`` = |v_cw|^2 and ``cross`` =
    <v_ccw, v_cw>; kappa is the coupler cross ratio.
    """

    power_ccw: float
    power_cw: float
    cross: complex
    kappa: float

    def probs(self, delta_phi):
        """Detection probabilities (p1, p2) for scalar or array delta_phi."""
        k = self.kappa
        interference = 2.0 * np.real(np.exp(1j * np.asarray(delta_phi, dtype=float)) * self.cross)
        p1 = k * (1.0 - k) * (self.power_ccw + self.power_cw + interference)
        p2 = k * k * self.power_ccw + (1.0 - k) ** 2 * self.power_cw - k * (1.0 - k) * interference
        p1 = np.maximum(p1, 0.0)
        p2 = np.maximum(p2, 0.0)
        if np.ndim(delta_phi) == 0:
            return float(p1), float(p2)
        return p1, p2

    @property
    def visibility(self) -> float:
        """|<v_ccw, v_cw>| / sqrt(|v_cw|^2 |v_ccw|^2), the fringe visibility.

        Equals 1 when the two returning polarizations coincide, and sinks
        below 1 when diattenuating elements or uncompensated birefringence
        pull them apart.
        """
        denom = math.sqrt(self.power_ccw * self.power_cw)
        if denom == 0.0:
            raise ValueError("single-path power is zero; visibility undefined")
        return abs(self.cross) / denom


@dataclass(frozen=True, eq=False)
class LoopFold:
    """A loop folded once around its two settings: attenuator and delay matrix.

    Clockwise composes forward matrices in component order, counterclockwise
    transposed ones in reverse.  Per direction (clockwise first), ``prefixes``
    is the product of the operators before the delay fiber (None if there
    are none) and ``suffixes`` the operators after it.  These, and the
    powers after the attenuator, are applied one at a time, so ``at`` rounds
    as a fold over the whole loop: bit for bit, the fringe of the rebuilt loop.
    """

    prefixes: tuple[np.ndarray | None, np.ndarray | None]
    suffixes: tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]
    power_before: float
    powers_after: tuple[float, ...]
    source: np.ndarray
    kappa: float

    def paths(self, delay: np.ndarray) -> list[np.ndarray]:
        """Clockwise and counterclockwise path operators for clockwise delay matrix ``delay``."""
        out = []
        for d, prefix, suffix in zip((delay, delay.T), self.prefixes, self.suffixes):
            total = d if prefix is None else d @ prefix
            for m in suffix:
                total = m @ total
            out.append(total)
        return out

    def power(self, transmittance: float) -> float:
        """Power transmittance of either direction, attenuator set to ``transmittance``."""
        return math.prod(self.powers_after, start=self.power_before * transmittance)

    def at(self, transmittance: float, delay: np.ndarray) -> FringeCoefficients:
        """Fringe with the attenuator at ``transmittance`` and clockwise delay matrix ``delay``."""
        amplitude = math.sqrt(self.power(transmittance))
        v_cw, v_ccw = (amplitude * (path @ self.source) for path in self.paths(delay))
        return FringeCoefficients(
            power_ccw=float(np.vdot(v_ccw, v_ccw).real),
            power_cw=float(np.vdot(v_cw, v_cw).real),
            cross=complex(np.vdot(v_ccw, v_cw)),
            kappa=self.kappa,
        )


def loop_fold(config: LoopConfig) -> LoopFold:
    """Fold everything in a loop except its attenuator setting and delay matrix."""
    comps, d, a = config.components, config.delay_index, config.attenuator_index
    before, after = comps[:d], comps[d + 1 :]
    return LoopFold(
        prefixes=(
            compose([c.jones for c in before]).m if before else None,
            compose([backward(c.jones) for c in reversed(after)]).m if after else None,
        ),
        suffixes=(tuple(c.jones.m for c in after), tuple(c.jones.m.T for c in reversed(before))),
        power_before=math.prod((c.power_transmittance() for c in comps[:a]), start=1.0),
        powers_after=tuple(c.power_transmittance() for c in comps[a + 1 :]),
        source=config.source_pol.vector,
        kappa=config.coupler_ratio,
    )


def fringe_coefficients(config: LoopConfig) -> FringeCoefficients:
    """Reduce a loop to its interference coefficients at the coupler."""
    return loop_fold(config).at(
        config.components[config.attenuator_index].transmittance,
        config.components[config.delay_index].jones.m,
    )


def modulator_separation(config: LoopConfig, owner: str) -> float:
    """Time between the two pulses' transits of ``owner``'s phase modulator, in s.

    Both pulses leave the coupler at once and travel at c / DEFAULT_GROUP_INDEX,
    so they pass the modulator |fiber before it - fiber after it| apart.
    """
    lengths = [c.length for c in config.components]  # 0 for all but fibers
    i = [c.owner for c in config.components].index(owner)
    return abs(sum(lengths[:i]) - sum(lengths[i + 1 :])) * DEFAULT_GROUP_INDEX / SPEED_OF_LIGHT


def fiber(
    label: str,
    length: float,
    loss_db_per_km: float,
    jones: JonesOperator = IDENTITY,
    kind: ComponentKind = ComponentKind.FIBER,
) -> Component:
    """A fiber of ``length`` m: a link, or with ``kind`` DELAY_FIBER the delay."""
    return Component(kind, label=label, length=length, loss_db_per_km=loss_db_per_km, jones=jones)


def hub(
    delay_length: float, loss_db_per_km: float, delay_jones: JonesOperator = IDENTITY
) -> tuple[Component, Component]:
    """Bob's hub clockwise from the coupler: his phase modulator, then the delay fiber."""
    return (
        Component(ComponentKind.PHASE_MODULATOR, label="PM-bob", owner="bob"),
        fiber("delay", delay_length, loss_db_per_km, delay_jones, ComponentKind.DELAY_FIBER),
    )


def partner_module(
    transmittance: float, modulator_label: str = "PM-alice", attenuator_label: str = "attenuator"
) -> tuple[Component, Component]:
    """The keying partner's module: the protocol phase modulator, then the attenuator."""
    return (
        Component(ComponentKind.PHASE_MODULATOR, label=modulator_label, owner="alice"),
        Component(ComponentKind.ATTENUATOR, label=attenuator_label, transmittance=transmittance),
    )


def standard_loop(
    upper_length: float = 200.0,
    lower_length: float = 200.0,
    delay_length: float = 800.0,
    *,
    loss_db_per_km: float = 0.0,
    coupler_ratio: float = 0.5,
    attenuator_transmittance: float = 1.0,
    source_pol: JonesState = H_POL,
    upper_jones: JonesOperator = IDENTITY,
    lower_jones: JonesOperator = IDENTITY,
    delay_jones: JonesOperator = IDENTITY,
) -> LoopConfig:
    """Two-party loop in clockwise order from the coupler.

    Clockwise, the pulse meets Bob's modulator, the delay fiber, the lower
    link to Alice, her modulator and variable attenuator, then returns over
    the upper link.
    """
    return LoopConfig(
        components=(
            *hub(delay_length, loss_db_per_km, delay_jones),
            fiber("lower-link", lower_length, loss_db_per_km, lower_jones),
            *partner_module(attenuator_transmittance),
            fiber("upper-link", upper_length, loss_db_per_km, upper_jones),
        ),
        coupler_ratio=coupler_ratio,
        source_pol=source_pol,
    )

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .jones import (
    H_POL,
    IDENTITY,
    JonesOperator,
    JonesState,
    TWO_PI,
    backward,
    compose,
)

SPEED_OF_LIGHT = 299_792_458.0  # m/s, vacuum

# Silica fiber near 830 nm; used for pulse time-of-flight.
DEFAULT_GROUP_INDEX = 1.468

# Modulators are gated; two pulse transits closer than this collide.
DEFAULT_GATE_WIDTH = 100e-9  # s


class ComponentKind(str, Enum):
    FIBER = "fiber"
    DELAY_FIBER = "delay_fiber"
    PHASE_MODULATOR = "phase_modulator"
    POL_CONTROLLER = "pol_controller"
    ATTENUATOR = "attenuator"
    PDL_ELEMENT = "pdl_element"


FIBER_KINDS = (ComponentKind.FIBER, ComponentKind.DELAY_FIBER)


class Direction(str, Enum):
    CW = "cw"
    CCW = "ccw"


@dataclass(frozen=True, eq=False)
class Component:
    """One loop element in clockwise traversal order.

    ``length`` and ``loss_db_per_km`` apply to fiber kinds, ``owner`` to
    phase modulators, ``transmittance`` (power) to the attenuator.  The
    Jones matrix carries birefringence, controller settings, or
    polarization-dependent loss; modulator phase shifts are applied
    per pulse, not here.
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
    ``alice_pm_index`` / ``bob_pm_index`` are derived from the component
    list.
    """

    components: tuple[Component, ...]
    coupler_ratio: float = 0.5
    source_pol: JonesState = H_POL
    alice_pm_index: int = field(init=False)
    bob_pm_index: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        if not (0.0 < self.coupler_ratio < 1.0):
            raise ValueError(f"coupler_ratio must be in (0, 1), got {self.coupler_ratio}")
        # a constructed Component gives an owner to phase modulators only
        modulators: dict[str, list[int]] = {"alice": [], "bob": []}
        n_att = n_delay = 0
        for i, c in enumerate(self.components):
            if c.owner is not None:
                modulators[c.owner].append(i)
            n_att += c.kind is ComponentKind.ATTENUATOR
            n_delay += c.kind is ComponentKind.DELAY_FIBER
        for owner, indices in modulators.items():
            if len(indices) != 1:
                raise ValueError(
                    f"loop must contain exactly one phase modulator owned by {owner}, "
                    f"got {len(indices)}"
                )
        if n_att != 1:
            raise ValueError(f"loop must contain exactly one attenuator, got {n_att}")
        if n_delay != 1:
            raise ValueError(f"loop must contain exactly one delay fiber, got {n_delay}")
        if not self.source_pol.is_normalized(tol=1e-9):
            raise ValueError("source_pol must be normalized")
        object.__setattr__(self, "alice_pm_index", modulators["alice"][0])
        object.__setattr__(self, "bob_pm_index", modulators["bob"][0])


@dataclass(frozen=True)
class PhasePair:
    """Per-pulse modulator settings (phi_a on Alice's PM, phi_b on Bob's)."""

    phi_a: float
    phi_b: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi_a", float(self.phi_a) % TWO_PI)
        object.__setattr__(self, "phi_b", float(self.phi_b) % TWO_PI)

    @property
    def delta(self) -> float:
        return (self.phi_a - self.phi_b) % TWO_PI


@dataclass(frozen=True, eq=False)
class PathSummary:
    """Accumulated effect of one traversal direction, phase modulators excluded."""

    jones_total: JonesOperator
    amplitude_transmittance: float
    optical_length: float


def accumulate(config: LoopConfig, direction: Direction | str) -> PathSummary:
    """Fold the loop's components into a single path operator.

    Clockwise composes forward matrices in list order; counterclockwise
    composes transposed matrices in reverse order.  Scalar loss multiplies
    up identically for both directions; optical length sums fiber lengths.
    """
    direction = Direction(direction)
    if direction is Direction.CW:
        ops = [c.jones for c in config.components]
    else:
        ops = [backward(c.jones) for c in reversed(config.components)]
    power = 1.0
    length = 0.0
    for c in config.components:
        power *= c.power_transmittance()
        if c.kind in FIBER_KINDS:
            length += c.length
    return PathSummary(
        jones_total=compose(ops),
        amplitude_transmittance=math.sqrt(power),
        optical_length=length,
    )


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
        denom = math.sqrt(self.power_ccw * self.power_cw)
        if denom == 0.0:
            raise ValueError("single-path power is zero; visibility undefined")
        return abs(self.cross) / denom


def fringe_coefficients(config: LoopConfig) -> FringeCoefficients:
    """Reduce a loop to its interference coefficients at the coupler."""
    cw = accumulate(config, Direction.CW)
    ccw = accumulate(config, Direction.CCW)
    psi = config.source_pol.vector
    v_cw = cw.amplitude_transmittance * (cw.jones_total.m @ psi)
    v_ccw = ccw.amplitude_transmittance * (ccw.jones_total.m @ psi)
    return FringeCoefficients(
        power_ccw=float(np.vdot(v_ccw, v_ccw).real),
        power_cw=float(np.vdot(v_cw, v_cw).real),
        cross=complex(np.vdot(v_ccw, v_cw)),
        kappa=config.coupler_ratio,
    )


def detection_probs(config: LoopConfig, phases: PhasePair) -> tuple[float, float]:
    """Per-photon probabilities of reaching detector 1 and detector 2.

    For an ideal lossless loop these are cos^2(delta/2) and sin^2(delta/2)
    with delta = phi_a - phi_b; loss makes p1 + p2 < 1.  Only the phase
    difference matters because the modulator shifts are scalar factors on
    the two counter-propagating amplitudes.
    """
    return fringe_coefficients(config).probs(phases.delta)


def pdl_penalty(config: LoopConfig) -> float:
    """Interference visibility at the coupler, normalized per path.

    |<v_ccw, v_cw>| / sqrt(|v_cw|^2 |v_ccw|^2): equals 1 when the two
    returning polarizations coincide, and sinks below 1 when diattenuating
    elements or uncompensated birefringence pull them apart.
    """
    return fringe_coefficients(config).visibility


@dataclass(frozen=True)
class ScheduleEntry:
    component_index: int
    label: str
    kind: ComponentKind
    direction: Direction
    t_enter: float
    t_exit: float


@dataclass(frozen=True)
class TimingSchedule:
    """Transit windows of both pulses plus the stagger check at Alice's modulator."""

    entries: tuple[ScheduleEntry, ...]
    alice_pm_separation: float
    conflict: bool


def timing_schedule(
    config: LoopConfig,
    group_index: float = DEFAULT_GROUP_INDEX,
    gate_width: float = DEFAULT_GATE_WIDTH,
) -> TimingSchedule:
    """Time-of-flight schedule for the two counter-propagating pulses.

    Both pulses leave the coupler at t = 0 and travel at c / group_index.
    The delay fiber on Bob's side staggers their transits through Alice's
    modulator; a separation below ``gate_width`` is flagged as a conflict
    (returned, not raised, so parameter sweeps can scan bad geometries).
    """
    if not (group_index > 1.0):
        raise ValueError(f"group_index must exceed 1, got {group_index}")
    speed = SPEED_OF_LIGHT / group_index
    positions = []
    s = 0.0
    for c in config.components:
        positions.append(s)
        if c.kind in FIBER_KINDS:
            s += c.length
    total = s

    entries: list[ScheduleEntry] = []
    t_alice = {}
    for i, c in enumerate(config.components):
        start = positions[i]
        end = start + (c.length if c.kind in FIBER_KINDS else 0.0)
        cw = ScheduleEntry(i, c.label, c.kind, Direction.CW, start / speed, end / speed)
        ccw = ScheduleEntry(i, c.label, c.kind, Direction.CCW, (total - end) / speed, (total - start) / speed)
        entries.extend((cw, ccw))
        if i == config.alice_pm_index:
            t_alice[Direction.CW] = cw.t_enter
            t_alice[Direction.CCW] = ccw.t_enter
    separation = abs(t_alice[Direction.CW] - t_alice[Direction.CCW])
    return TimingSchedule(
        entries=tuple(entries),
        alice_pm_separation=separation,
        conflict=separation < gate_width,
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
    pc_coupler: JonesOperator = IDENTITY,
    pc_bob: JonesOperator = IDENTITY,
    pc_alice: JonesOperator = IDENTITY,
    extra_components: Sequence[Component] = (),
) -> LoopConfig:
    """Two-party loop in clockwise order from the coupler.

    Clockwise, the pulse meets Bob's controller and modulator, the delay
    fiber, the lower link to Alice, her controller, modulator and variable
    attenuator, then returns over the upper link.  ``extra_components``
    (e.g. a PDL element) are appended just before the upper link.
    """
    components = [
        Component(ComponentKind.POL_CONTROLLER, label="PC-coupler", jones=pc_coupler),
        Component(ComponentKind.PHASE_MODULATOR, label="PM-bob", owner="bob"),
        Component(ComponentKind.POL_CONTROLLER, label="PC-bob", jones=pc_bob),
        Component(
            ComponentKind.DELAY_FIBER,
            label="delay",
            length=delay_length,
            loss_db_per_km=loss_db_per_km,
            jones=delay_jones,
        ),
        Component(
            ComponentKind.FIBER,
            label="lower-link",
            length=lower_length,
            loss_db_per_km=loss_db_per_km,
            jones=lower_jones,
        ),
        Component(ComponentKind.POL_CONTROLLER, label="PC-alice", jones=pc_alice),
        Component(ComponentKind.PHASE_MODULATOR, label="PM-alice", owner="alice"),
        Component(ComponentKind.ATTENUATOR, label="attenuator", transmittance=attenuator_transmittance),
        *extra_components,
        Component(
            ComponentKind.FIBER,
            label="upper-link",
            length=upper_length,
            loss_db_per_km=loss_db_per_km,
            jones=upper_jones,
        ),
    ]
    return LoopConfig(
        components=tuple(components),
        coupler_ratio=coupler_ratio,
        source_pol=source_pol,
    )

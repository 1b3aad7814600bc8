"""Multi-party key distribution on a fiber ring.

Bob's hub (coupler, detectors, delay fiber, his modulator) anchors a
closed ring of entity modules connected by link fibers.  For a session
Bob selects one partner; that entity's module applies the protocol phase
and the attenuation that sets the mean photon number, while every other
module passes the pulses through untouched.  A non-cooperating module
that randomizes its phase between the two counter-propagating transits
shows up immediately as an elevated error rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bb84 import SessionStats
from .jones import JonesOperator
from .loopmodel import Component, ComponentKind, LoopConfig, fiber, hub, partner_module
from .session import DisturbanceKind, NoiseTap


@dataclass(frozen=True)
class Entity:
    """One ring participant's module: phase modulator and attenuator.

    Whenever its entity is not the session partner, a noisy module injects
    a random phase on each pulse pass: a ``uniform`` module always, over the
    full circle, and a ``gaussian`` one when ``disturbance_sigma`` > 0, of
    that width.  ``insertion_transmittance`` models its residual loss when
    idle.
    """

    id: str
    attenuator_transmittance: float = 1.0
    insertion_transmittance: float = 1.0
    disturbance_sigma: float = 0.0
    disturbance_kind: DisturbanceKind = DisturbanceKind.GAUSSIAN

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("entity id must be non-empty")
        if not (0.0 < self.attenuator_transmittance <= 1.0):
            raise ValueError(f"entity {self.id}: attenuator_transmittance must be in (0, 1]")
        if not (0.0 < self.insertion_transmittance <= 1.0):
            raise ValueError(f"entity {self.id}: insertion_transmittance must be in (0, 1]")
        if not (self.disturbance_sigma >= 0.0):
            raise ValueError(f"entity {self.id}: disturbance_sigma must be >= 0")


@dataclass(frozen=True, eq=False)
class RingConfig:
    """Closed ring: Bob's hub, then entities in clockwise order.

    ``link_lengths`` has one entry per fiber segment, clockwise from the
    hub to the first entity, between consecutive entities, and from the
    last entity back to the hub (so always len(entities) + 1 entries).
    """

    entities: tuple[Entity, ...]
    link_lengths: tuple[float, ...]
    delay_length: float = 800.0
    loss_db_per_km: float = 0.0
    coupler_ratio: float = 0.5

    def __post_init__(self) -> None:
        if len(self.entities) < 1:
            raise ValueError("ring needs at least one entity")
        if len(self.link_lengths) != len(self.entities) + 1:
            raise ValueError(
                f"ring with {len(self.entities)} entities needs {len(self.entities) + 1} "
                f"link fibers, got {len(self.link_lengths)}"
            )
        ids = [e.id for e in self.entities]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate entity ids in ring: {ids}")
        for length in self.link_lengths:
            if not (length >= 0.0):
                raise ValueError(f"link length must be >= 0, got {length}")

    def entity_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.entities)


def select_partner(ring: RingConfig, partner_id: str) -> LoopConfig:
    """Flatten the ring into an equivalent two-party loop for one session.

    Built from the parts of ``loopmodel.standard_loop``: Bob's hub, one
    link fiber per gap, and the selected entity's module, which contributes
    the protocol modulator and the attenuator.  Every other module reduces
    to its insertion loss -- no phase, no extra attenuation.  A one-entity
    ring therefore flattens to exactly the standard two-party loop geometry.
    """
    if partner_id not in ring.entity_ids():
        raise ValueError(
            f"unknown entity id {partner_id!r}; ring has {', '.join(ring.entity_ids())}"
        )
    loss = ring.loss_db_per_km
    components: list[Component] = list(hub(ring.delay_length, loss))
    for i, entity in enumerate(ring.entities):
        components.append(fiber(f"link-{i}", ring.link_lengths[i], loss))
        if entity.id == partner_id:
            components += partner_module(
                entity.attenuator_transmittance, f"PM-{entity.id}", f"attenuator-{entity.id}"
            )
        elif entity.insertion_transmittance < 1.0:
            t = math.sqrt(entity.insertion_transmittance)
            components.append(
                Component(
                    ComponentKind.PDL_ELEMENT,
                    label=f"insertion-{entity.id}",
                    jones=JonesOperator(np.diag([t, t])),
                )
            )
    components.append(fiber(f"link-{len(ring.entities)}", ring.link_lengths[-1], loss))
    return LoopConfig(components=tuple(components), coupler_ratio=ring.coupler_ratio)


def noise_taps(ring: RingConfig, partner_id: str) -> tuple[NoiseTap, ...]:
    """Disturbance sources for a session: every noisy module except the partner's.

    The one place that decides which taps are live: a quiet module, Gaussian
    with sigma 0, gets none.  A uniform tap never reads sigma.
    """
    taps = []
    for i, entity in enumerate(ring.entities):
        live = entity.disturbance_kind is DisturbanceKind.UNIFORM or entity.disturbance_sigma > 0.0
        if entity.id != partner_id and live:
            taps.append(
                NoiseTap(sigma=entity.disturbance_sigma, kind=entity.disturbance_kind, tag=i)
            )
    return tuple(taps)


class DisturbanceVerdict(str, Enum):
    CLEAN = "clean"
    DISTURBED = "disturbed"
    INDETERMINATE = "indeterminate"


# Conservative alarm threshold: far below the 25% of a full intercept-resend
# attack, comfortably above a calibrated few-percent operating point.
DEFAULT_DISTURBANCE_THRESHOLD = 0.11


def detect_disturbance(
    stats: SessionStats, threshold: float = DEFAULT_DISTURBANCE_THRESHOLD
) -> DisturbanceVerdict:
    """Flag a session whose error rate is inconsistent with an undisturbed ring.

    Disturbed when the lower edge of the 95% QBER interval clears the
    threshold; indeterminate when no sifted bits were disclosed.
    """
    if not stats.qber_defined or math.isnan(stats.qber_low):
        return DisturbanceVerdict.INDETERMINATE
    return (
        DisturbanceVerdict.DISTURBED
        if stats.qber_low > threshold
        else DisturbanceVerdict.CLEAN
    )


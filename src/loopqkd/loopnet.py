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

from .bb84 import SessionStats, Transcript
from .jones import H_POL, IDENTITY, JonesOperator, JonesState
from .loopmodel import Component, ComponentKind, LoopConfig
from .session import DisturbanceKind, NoiseTap, SessionParams, run_session


@dataclass(frozen=True)
class Entity:
    """One ring participant's module: controller, modulator, attenuator.

    ``disturbance_sigma`` > 0 makes a *non-selected* module inject a random
    phase on each pulse pass (Gaussian of that width, or uniform over the
    full circle); ``insertion_transmittance`` models its residual loss when
    idle.  ``selected`` marks the current session partner.
    """

    id: str
    pc_jones: JonesOperator = IDENTITY
    attenuator_transmittance: float = 1.0
    insertion_transmittance: float = 1.0
    disturbance_sigma: float = 0.0
    disturbance_kind: DisturbanceKind = DisturbanceKind.GAUSSIAN
    selected: bool = False

    def validate(self) -> None:
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
    source_pol: JonesState = H_POL

    def validate(self) -> None:
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
        if sum(1 for e in self.entities if e.selected) > 1:
            raise ValueError("at most one entity may be selected per session")
        for e in self.entities:
            e.validate()
        for length in self.link_lengths:
            if not (length >= 0.0):
                raise ValueError(f"link length must be >= 0, got {length}")

    def entity_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.entities)


def select_partner(ring: RingConfig, partner_id: str) -> LoopConfig:
    """Flatten the ring into an equivalent two-party loop for one session.

    The selected entity's module contributes the protocol modulator and the
    attenuator; every other module reduces to its (identity by default)
    passive elements -- no phase, no extra attenuation beyond its insertion
    loss.  A one-entity ring therefore flattens to exactly the standard
    two-party loop geometry.
    """
    ring.validate()
    if partner_id not in ring.entity_ids():
        raise ValueError(
            f"unknown entity id {partner_id!r}; ring has {', '.join(ring.entity_ids())}"
        )
    components: list[Component] = [
        Component(ComponentKind.POL_CONTROLLER, label="PC-coupler"),
        Component(ComponentKind.PHASE_MODULATOR, label="PM-bob", owner="bob"),
        Component(ComponentKind.POL_CONTROLLER, label="PC-bob"),
        Component(
            ComponentKind.DELAY_FIBER,
            label="delay",
            length=ring.delay_length,
            loss_db_per_km=ring.loss_db_per_km,
        ),
    ]
    for i, entity in enumerate(ring.entities):
        components.append(
            Component(
                ComponentKind.FIBER,
                label=f"link-{i}",
                length=ring.link_lengths[i],
                loss_db_per_km=ring.loss_db_per_km,
            )
        )
        components.append(
            Component(ComponentKind.POL_CONTROLLER, label=f"PC-{entity.id}", jones=entity.pc_jones)
        )
        if entity.id == partner_id:
            components.append(
                Component(ComponentKind.PHASE_MODULATOR, label=f"PM-{entity.id}", owner="alice")
            )
            components.append(
                Component(
                    ComponentKind.ATTENUATOR,
                    label=f"attenuator-{entity.id}",
                    transmittance=entity.attenuator_transmittance,
                )
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
    components.append(
        Component(
            ComponentKind.FIBER,
            label=f"link-{len(ring.entities)}",
            length=ring.link_lengths[-1],
            loss_db_per_km=ring.loss_db_per_km,
        )
    )
    return LoopConfig(
        components=tuple(components),
        coupler_ratio=ring.coupler_ratio,
        source_pol=ring.source_pol,
    )


def noise_taps(ring: RingConfig, partner_id: str) -> tuple[NoiseTap, ...]:
    """Disturbance sources for a session: every noisy module except the partner's."""
    taps = []
    for i, entity in enumerate(ring.entities):
        if entity.id != partner_id and entity.disturbance_sigma > 0.0:
            taps.append(
                NoiseTap(sigma=entity.disturbance_sigma, kind=entity.disturbance_kind, tag=i)
            )
    return tuple(taps)


def run_network_session(
    ring: RingConfig,
    partner_id: str,
    params: SessionParams,
    collect_records: bool = False,
) -> tuple[SessionStats, Transcript | None]:
    """Full protocol session between Bob and the selected ring entity."""
    config = select_partner(ring, partner_id)
    return run_session(config, params, noise=noise_taps(ring, partner_id), collect_records=collect_records)


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


def expected_disturbed_qber(sigma: float, kind: DisturbanceKind = DisturbanceKind.GAUSSIAN) -> float:
    """Expected error rate induced by one noisy module, ideal optics, no darks.

    Each pass draws independently, so the differential phase has variance
    2 sigma^2 and E[cos(delta)] = exp(-sigma^2): the error rate is
    (1 - exp(-sigma^2)) / 2, saturating at 1/2 for uniform phase noise.
    """
    if kind is DisturbanceKind.UNIFORM:
        return 0.5
    return 0.5 * (1.0 - math.exp(-sigma * sigma))

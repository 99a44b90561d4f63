"""Declarative fault specifications.

:class:`FaultSpec` is the frozen, hashable description of one chaos
model that :class:`~repro.experiments.config.ScenarioConfig` carries
(``fault_spec`` accepts a tuple of them, so fault classes compose);
:func:`build_chaos_model` turns a spec into a live model wired to a
run's network, system and RNG stream.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Tuple

from repro.chaos.models import (
    ActuatorOutageFault,
    BatteryDepletionFault,
    ChaosModel,
    CrashRotationFault,
    GilbertElliottLinkFault,
    PermanentCrashFault,
    RegionalBlackoutFault,
)
from repro.errors import ConfigError
from repro.net.network import WirelessNetwork

#: The fault classes `FaultSpec.kind` accepts.
FAULT_KINDS: Tuple[str, ...] = (
    "rotation",      # the paper's Section IV-B crash rotation
    "permanent",     # crashes without recovery (attrition)
    "actuator",      # actuator-targeted outages
    "blackout",      # regional disc outage (partition stress)
    "battery",       # battery-depletion attack (forced replacements)
    "links",         # Gilbert-Elliott bursty link loss
)


@dataclass(frozen=True)
class FaultSpec:
    """One declarative chaos model; unused knobs are ignored per kind.

    ``start`` delays the model's first action (absolute sim seconds
    from run start); ``rounds`` bounds repeating models (0 =
    unbounded).  ``count`` is nodes per event; ``period`` the event
    spacing; ``duration`` the outage window for actuator/blackout;
    ``radius`` the blackout disc (centred at random each round);
    ``mean_good``/``mean_bad`` the Gilbert-Elliott sojourn means.  The
    battery level a depletion attack leaves and a faded link's signal
    factor are constants of :mod:`repro.chaos.models`.
    """

    kind: str
    count: int = 2
    period: float = 10.0
    start: float = 0.0
    rounds: int = 0
    duration: float = 8.0
    radius: float = 120.0
    mean_good: float = 8.0
    mean_bad: float = 1.5

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if self.count < 0 or self.rounds < 0:
            raise ConfigError("count and rounds must be non-negative")
        # NaN fails every comparison, so each check refuses it.
        for name in ("period", "duration", "radius", "mean_good", "mean_bad"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite")
        if not 0 <= self.start < math.inf:
            raise ConfigError("start must be finite and non-negative")
        if self.kind in ("actuator", "blackout") and self.duration >= self.period:
            raise ConfigError("outage duration must be below the period")


def build_chaos_model(
    spec: FaultSpec,
    network: WirelessNetwork,
    system,
    rng: random.Random,
    area_side: float,
) -> ChaosModel:
    """Instantiate the model ``spec`` describes for one run.

    ``system`` is the run's :class:`~repro.wsan.system.WsanSystem`;
    eligible populations come from it so chaos targets stay valid as
    maintenance shuffles membership.  ``rng`` must be a dedicated
    ``RngStreams`` stream — the model owns its draws.
    """
    count = spec.count

    def sensors():
        return system.sensor_ids

    if spec.kind == "rotation":
        return CrashRotationFault(
            network,
            rng,
            count=lambda: count,
            eligible=sensors,
            period=spec.period,
        )
    if spec.kind == "permanent":
        return PermanentCrashFault(
            network,
            rng,
            count=lambda: count,
            eligible=sensors,
            period=spec.period,
            rounds=spec.rounds,
        )
    if spec.kind == "actuator":
        return ActuatorOutageFault(
            network,
            rng,
            count=lambda: count,
            actuators=lambda: system.actuator_ids,
            period=spec.period,
            duration=spec.duration,
            rounds=spec.rounds,
        )
    if spec.kind == "blackout":
        return RegionalBlackoutFault(
            network,
            rng,
            area_side=area_side,
            radius=spec.radius,
            duration=spec.duration,
            period=spec.period,
            rounds=spec.rounds,
        )
    if spec.kind == "battery":
        # Prefer current cell members (REFER exposes them): draining a
        # KID holder forces a maintenance replacement, which is the
        # point of the attack.  Systems without the notion fall back to
        # all sensors.
        def battery_targets():
            members = getattr(system, "member_sensor_ids", None)
            if members:
                return sorted(members)
            return system.sensor_ids

        return BatteryDepletionFault(
            network,
            rng,
            count=lambda: count,
            eligible=battery_targets,
            period=spec.period,
            rounds=spec.rounds,
        )
    if spec.kind == "links":
        return GilbertElliottLinkFault(
            network,
            rng,
            mean_good=spec.mean_good,
            mean_bad=spec.mean_bad,
        )
    raise ConfigError(f"unhandled fault kind {spec.kind!r}")

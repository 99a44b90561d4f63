"""Declarative fault specifications.

:class:`FaultSpec` is the frozen, hashable description of one chaos
model that :class:`~repro.experiments.config.ScenarioConfig` carries
(``fault_spec`` accepts a tuple of them, so fault classes compose);
:func:`build_chaos_model` turns a spec into a live model wired to a
run's network, system and RNG stream.  The spec is the model's
parameters and this module is their one validator.
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
from repro.errors import ConfigError, require_int_fields
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
    """One declarative chaos model; fields a kind does not read are ignored.

    Every kind reads ``start``: its first action comes that many sim
    seconds after the run arms its faults.  The five scheduled kinds
    (all but ``links``) then run one round every ``period`` seconds, at
    most ``rounds`` of them (0 = unbounded); damage a round leaves
    stays until teardown, so a capped rotation's last set stays down,
    as ``permanent``'s crashes do.  Per kind:

    - ``rotation``: the previous round's sensors recover, then
      ``count`` sensors fail;
    - ``permanent``: ``count`` more sensors fail, for good;
    - ``actuator``: ``count`` actuators fail for ``duration`` seconds;
    - ``blackout``: every node within ``radius`` metres of a centre
      drawn uniformly in the area fails for ``duration`` seconds;
    - ``battery``: ``count`` cell members (sensors, where the system
      has no cells) are drained, for good;
    - ``links``: every link fades in bursts, with Gilbert-Elliott
      sojourn means ``mean_good`` / ``mean_bad`` seconds.

    The two outage kinds need ``duration`` below ``period``.  The
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
        require_int_fields(self)
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
    populations are read from it each round, so chaos targets stay
    valid as maintenance shuffles membership.  ``rng`` must be a
    dedicated ``RngStreams`` stream — the model owns its draws.
    """
    if spec.kind == "blackout":
        return RegionalBlackoutFault(network, rng, spec, area_side)
    if spec.kind == "links":
        return GilbertElliottLinkFault(network, rng, spec)
    if spec.kind == "actuator":
        return ActuatorOutageFault(
            network, rng, spec, lambda: system.actuator_ids
        )
    if spec.kind == "battery":
        # Prefer current cell members (REFER exposes them): draining a
        # KID holder forces a maintenance replacement, which is the
        # point of the attack.  Systems without the notion fall back to
        # all sensors.
        def members():
            held = getattr(system, "member_sensor_ids", None)
            return sorted(held) if held else system.sensor_ids

        return BatteryDepletionFault(network, rng, spec, members)
    model = CrashRotationFault if spec.kind == "rotation" else PermanentCrashFault
    return model(network, rng, spec, lambda: system.sensor_ids)

"""Chaos engineering: composable fault models + recovery instrumentation.

The package generalises the paper's Section IV-B crash rotation
(:class:`CrashRotationFault`, which Figs 6-7 run as a rotation
:class:`FaultSpec`) into a library of deterministic, sim-clock-driven
fault models on one round loop (:class:`ChaosModel`; a kind is only
whom it picks and how the damage ends), a coordinator to compose
them, a windowed delivery-ratio probe measuring time-to-recovery, and
a frozen :class:`FaultSpec` that is every model's parameters, so
scenarios declare faults in
:class:`~repro.experiments.config.ScenarioConfig`.
"""

from repro.chaos.coordinator import ChaosCoordinator
from repro.chaos.models import (
    ActuatorOutageFault,
    BatteryDepletionFault,
    ChaosModel,
    CrashRotationFault,
    FaultEvent,
    GilbertElliottLinkFault,
    PermanentCrashFault,
    RegionalBlackoutFault,
)
from repro.chaos.probe import (
    FaultRecovery,
    ResilienceProbe,
    ResilienceSummary,
)
from repro.chaos.spec import FAULT_KINDS, FaultSpec, build_chaos_model

__all__ = [
    "ActuatorOutageFault",
    "BatteryDepletionFault",
    "ChaosCoordinator",
    "ChaosModel",
    "CrashRotationFault",
    "FaultEvent",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultRecovery",
    "GilbertElliottLinkFault",
    "PermanentCrashFault",
    "RegionalBlackoutFault",
    "ResilienceProbe",
    "ResilienceSummary",
    "build_chaos_model",
]

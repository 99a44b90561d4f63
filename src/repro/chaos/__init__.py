"""Chaos engineering: composable fault models + recovery instrumentation.

The package generalises the paper's Section IV-B crash rotation
(:class:`CrashRotationFault`, which the figures' ``config.faults``
path runs on) into a library of deterministic, sim-clock-driven
fault models sharing one scheduler interface, a coordinator to
compose them, a windowed delivery-ratio probe measuring time-to-
recovery, and a frozen :class:`FaultSpec` so scenarios declare faults
in :class:`~repro.experiments.config.ScenarioConfig`.
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
    WindowSample,
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
    "WindowSample",
    "build_chaos_model",
]

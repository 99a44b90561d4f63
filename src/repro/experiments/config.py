"""Scenario configuration (Section IV defaults).

The paper's setup: a 500 m x 500 m area, 5 actuators, 200 sensors,
sensor/actuator transmission ranges 100 m / 250 m, K(2, 3) cells,
random-waypoint speeds in [0, 3] m/s, 5 sources re-chosen every 10 s
at 1 Mbps, 100 s warm-up + 1000 s of simulation, QoS deadline 0.6 s.

The default data rate here is expressed in packets/second of 1 KB
packets and scaled down so a full 4-system sweep runs on a laptop;
EXPERIMENTS.md documents the scaling.  Benches override the knobs
from environment variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.chaos.spec import FaultSpec
from repro.errors import ConfigError
from repro.qos.config import BurstyConfig, QosConfig
from repro.recovery.config import RecoveryConfig
from repro.telemetry.config import TelemetryConfig


@dataclass(frozen=True)
class FaultConfig:
    """Fault injection: ``count`` nodes break every ``period`` seconds."""

    count: int
    period: float = 10.0

    def __post_init__(self) -> None:
        if self.count < 0 or self.period <= 0:
            raise ConfigError("invalid fault configuration")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one simulation run depends on."""

    seed: int = 1
    sensor_count: int = 200
    area_side: float = 500.0
    sensor_range: float = 100.0
    actuator_range: float = 250.0
    sensor_max_speed: float = 3.0
    sim_time: float = 120.0          # measured seconds (paper: 1000)
    warmup: float = 12.0             # paper: 100
    rate_pps: float = 12.0           # packets/s per source (paper: ~125)
    packet_bytes: int = 1000
    sources_per_window: int = 5
    source_window: float = 10.0
    qos_deadline: float = 0.6
    faults: Optional[FaultConfig] = None
    #: Chaos models for this run (see :mod:`repro.chaos`); a bare
    #: :class:`FaultSpec` is normalised to a one-element tuple.  Kept
    #: separate from ``faults`` so the legacy crash-rotation figures
    #: stay bit-identical to the seed.
    fault_spec: Tuple[FaultSpec, ...] = ()
    #: ResilienceProbe window (seconds); only used with ``fault_spec``.
    probe_window: float = 1.0
    #: Self-healing stack (:mod:`repro.recovery`): message-grounded
    #: failure detection, per-hop ARQ and CAN zone takeover.  ``None``
    #: (the default) keeps the seed's omniscient behaviour bit-exact;
    #: only REFER consumes it (baselines ignore the field).
    recovery: Optional[RecoveryConfig] = None
    #: Telemetry (:mod:`repro.telemetry`): flight recorder, sim-time
    #: profiler and the exported registry snapshot.  ``None`` (the
    #: default) disables observation; the run's numbers are identical
    #: either way (the determinism test pins this).
    telemetry: Optional[TelemetryConfig] = None
    #: QoS / overload robustness (:mod:`repro.qos`): traffic classes,
    #: priority MAC queueing with deadline-drop, source admission
    #: control and hop-level backpressure.  ``None`` (the default)
    #: keeps the legacy flow byte-identical.
    qos: Optional[QosConfig] = None
    #: Bursty heavy-tailed workload replacing :class:`CbrWorkload`
    #: (:class:`~repro.experiments.workload.BurstyWorkload`).  ``None``
    #: (the default) keeps the CBR workload.
    bursty: Optional[BurstyConfig] = None
    kautz_degree: int = 2            # REFER cell K(d, 3)

    def __post_init__(self) -> None:
        if isinstance(self.fault_spec, FaultSpec):
            object.__setattr__(self, "fault_spec", (self.fault_spec,))
        elif not isinstance(self.fault_spec, tuple):
            object.__setattr__(self, "fault_spec", tuple(self.fault_spec))
        if self.sensor_count < 12:
            raise ConfigError("need at least 12 sensors to embed K(2,3)")
        if self.sim_time <= 0 or self.warmup < 0:
            raise ConfigError("invalid time configuration")
        if self.rate_pps <= 0 or self.packet_bytes <= 0:
            raise ConfigError("invalid traffic configuration")
        for name in ("source_window", "sensor_range", "actuator_range"):
            if not getattr(self, name) > 0:  # NaN compares false: refused
                raise ConfigError(f"{name} must be positive")
        if not 0 <= self.sensor_max_speed < math.inf:
            raise ConfigError(
                "sensor_max_speed must be finite and non-negative"
            )
        if self.probe_window <= 0:
            raise ConfigError("probe_window must be positive")
        for spec in self.fault_spec:
            if not isinstance(spec, FaultSpec):
                raise ConfigError("fault_spec entries must be FaultSpec")
        if self.recovery is not None and not isinstance(
            self.recovery, RecoveryConfig
        ):
            raise ConfigError("recovery must be a RecoveryConfig or None")
        if self.telemetry is not None and not isinstance(
            self.telemetry, TelemetryConfig
        ):
            raise ConfigError("telemetry must be a TelemetryConfig or None")
        if self.qos is not None and not isinstance(self.qos, QosConfig):
            raise ConfigError("qos must be a QosConfig or None")
        if self.bursty is not None and not isinstance(
            self.bursty, BurstyConfig
        ):
            raise ConfigError("bursty must be a BurstyConfig or None")

    @property
    def end_time(self) -> float:
        """When packet generation stops (drain margin excluded)."""
        return self.warmup + self.sim_time

    def with_(self, **overrides) -> "ScenarioConfig":
        """A modified copy (sweep helper)."""
        return replace(self, **overrides)

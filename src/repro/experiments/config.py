"""Scenario configuration (Section IV defaults).

The paper's setup: a 500 m x 500 m area, 5 actuators, 200 sensors,
sensor/actuator transmission ranges 100 m / 250 m, K(2, 3) cells,
random-waypoint speeds in [0, 3] m/s, 5 sources re-chosen every 10 s
at 1 Mbps, 100 s warm-up + 1000 s of simulation, QoS deadline 0.6 s.

The default data rate here is expressed in packets/second of 1 KB
packets and scaled down so a full 4-system sweep runs on a laptop;
EXPERIMENTS.md documents the scaling.  Benches override the knobs
from environment variables.  What the evaluation holds fixed is a
constant of the module that reads it: the ranges
(:mod:`repro.wsan.system`), the source rotation
(:mod:`repro.experiments.workload`) and the QoS deadline
(:mod:`repro.experiments.metrics`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.chaos.spec import FaultSpec
from repro.errors import ConfigError, require_int_fields
from repro.kautz.graph import kautz_node_count
from repro.qos.config import BurstyConfig, QosConfig
from repro.recovery.config import RecoveryConfig
from repro.telemetry.config import TelemetryConfig
from repro.wsan.deployment import quadrant_actuator_positions, quadrant_cells

#: The cells every run lays out: the quadrant layout's, whose count and
#: actuators per cell do not depend on the area.
_CELLS = quadrant_cells(quadrant_actuator_positions(1.0))


@dataclass(frozen=True)
class FaultConfig:
    """Fault injection: ``count`` nodes break every
    :data:`~repro.experiments.runner.FAULT_PERIOD` seconds."""

    count: int

    def __post_init__(self) -> None:
        require_int_fields(self)
        if self.count < 0:
            raise ConfigError("invalid fault configuration")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one simulation run depends on."""

    seed: int = 1
    sensor_count: int = 200
    area_side: float = 500.0
    sensor_max_speed: float = 3.0
    sim_time: float = 120.0          # measured seconds (paper: 1000)
    warmup: float = 12.0             # paper: 100
    rate_pps: float = 12.0           # packets/s per source (paper: ~125)
    packet_bytes: int = 1000
    #: The Section IV-B rotation, run as the chaos coordinator's first
    #: model on its own "faults" stream; only e2e's ``baselines_flood``
    #: still sets it.
    faults: Optional[FaultConfig] = None
    #: Chaos models for this run (see :mod:`repro.chaos`); a bare
    #: :class:`FaultSpec` is normalised to a one-element tuple.  Figs
    #: 6-7 and the CLI's ``--faults`` declare their rotation here
    #: (``runner.crash_rotation``).
    fault_spec: Tuple[FaultSpec, ...] = ()
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
        require_int_fields(self)
        if isinstance(self.fault_spec, FaultSpec):
            object.__setattr__(self, "fault_spec", (self.fault_spec,))
        elif not isinstance(self.fault_spec, tuple):
            object.__setattr__(self, "fault_spec", tuple(self.fault_spec))
        if self.kautz_degree < 2:
            raise ConfigError("kautz_degree must be >= 2")
        # Each cell embeds K(d, 3) on its own actuators plus sensors.
        order = kautz_node_count(self.kautz_degree, 3)
        floor = sum(order - len(cell.actuator_indices) for cell in _CELLS)
        if self.sensor_count < floor:
            raise ConfigError(
                f"need at least {floor} sensors to embed "
                f"K({self.kautz_degree},3) in {len(_CELLS)} cells"
            )
        # The ledger's size column is an array("i"): a signed 32-bit int.
        if not 0 < self.packet_bytes < 2**31:
            raise ConfigError("packet_bytes must be in [1, 2**31 - 1]")
        # NaN fails every comparison, so each loop refuses it.
        for name in ("area_side", "sim_time", "rate_pps"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite")
        for name in ("warmup", "sensor_max_speed"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and non-negative")
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


def add_scenario_arguments(
    parser,
    *,
    seed: int,
    sensors: int,
    area: float,
    sim_time: float,
    warmup: float,
    rate: float,
) -> None:
    """Declare the scenario flags the report and divergence CLIs share
    on an ``argparse`` parser; each CLI brings its own defaults."""
    parser.add_argument("--system", default="REFER")
    parser.add_argument("--seed", type=int, default=seed)
    parser.add_argument("--sensors", type=int, default=sensors)
    parser.add_argument("--area", type=float, default=area)
    parser.add_argument("--sim-time", type=float, default=sim_time)
    parser.add_argument("--warmup", type=float, default=warmup)
    parser.add_argument("--rate", type=float, default=rate)
    parser.add_argument(
        "--chaos", default=None, metavar="KIND",
        help="inject a fault model (rotation, permanent, actuator, ...)",
    )
    parser.add_argument(
        "--recovery", action="store_true",
        help="enable the self-healing recovery stack (REFER only)",
    )
    parser.add_argument(
        "--qos", action="store_true",
        help="enable the QoS stack (priority MAC, admission, backpressure)",
    )
    parser.add_argument(
        "--bursty", type=int, default=0, metavar="SOURCES",
        help="use the bursty heavy-tailed workload with SOURCES sources",
    )
    parser.add_argument(
        "--load", type=float, default=1.0, metavar="MULT",
        help="offered-load multiplier for the bursty workload",
    )


def scenario_from_args(args, telemetry: TelemetryConfig) -> ScenarioConfig:
    """The scenario :func:`add_scenario_arguments`' flags describe
    (``--system`` is the caller's to pass to ``run_scenario``)."""
    return ScenarioConfig(
        seed=args.seed,
        sensor_count=args.sensors,
        area_side=args.area,
        sim_time=args.sim_time,
        warmup=args.warmup,
        rate_pps=args.rate,
        fault_spec=(
            (FaultSpec(kind=args.chaos, start=args.warmup),)
            if args.chaos else ()
        ),
        recovery=RecoveryConfig() if args.recovery else None,
        telemetry=telemetry,
        qos=QosConfig() if args.qos else None,
        bursty=(
            BurstyConfig(sources=args.bursty, load_multiplier=args.load)
            if args.bursty > 0 else None
        ),
    )

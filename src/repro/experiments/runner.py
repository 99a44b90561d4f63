"""The single-run driver: build a world, run a system, report metrics.

One :func:`run_scenario` call reproduces one point of one figure: it
instantiates the simulator, network, deployment and the requested
system, runs construction (CONSTRUCTION ledger), starts protocols,
fault injection and workload, simulates warm-up + measurement, and
returns a :class:`RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Type

from repro.baselines import DaTreeSystem, DDearSystem, KautzOverlaySystem
from repro.chaos import (
    ChaosCoordinator,
    FaultEvent,
    FaultSpec,
    ResilienceProbe,
    ResilienceSummary,
    build_chaos_model,
)
from repro.chaos.probe import PROBE_WINDOW
from repro.core.system import ReferSystem
from repro.errors import ConfigError
from repro.experiments.config import ScenarioConfig
from repro.experiments.metrics import ClassStat, MetricsCollector
from repro.experiments.workload import BurstyWorkload, CbrWorkload
from repro.net.energy import Phase
from repro.net.network import WirelessNetwork
from repro.qos import QosManager
from repro.recovery import RecoveryOrchestrator, RecoveryReport
from repro.sim.core import Simulator
from repro.telemetry.config import Telemetry
from repro.util.rng import RngStreams
from repro.wsan.deployment import plan_deployment
from repro.wsan.system import WsanSystem, build_nodes

SYSTEMS: Dict[str, Type[WsanSystem]] = {
    "REFER": ReferSystem,
    "DaTree": DaTreeSystem,
    "D-DEAR": DDearSystem,
    "Kautz-overlay": KautzOverlaySystem,
}

DRAIN_MARGIN = 2.0   # seconds past generation end for in-flight packets
#: Seconds between the crash rounds of the Section IV-B rotation.
FAULT_PERIOD = 10.0


def crash_rotation(count: int) -> FaultSpec:
    """Section IV-B's faults (Figs 6-7): ``count`` nodes crash every
    :data:`FAULT_PERIOD` seconds, the first round half a period in."""
    return FaultSpec(
        kind="rotation", count=count, period=FAULT_PERIOD,
        start=FAULT_PERIOD / 2.0,
    )


@dataclass(frozen=True)
class RunResult:
    """Everything the figures need from one run."""

    system: str
    config: ScenarioConfig
    throughput_bps: float
    mean_delay_s: float
    comm_energy_j: float
    construction_energy_j: float
    generated: int
    delivered_qos: int
    delivered_total: int
    dropped: int
    #: Communication-phase energy spent on route-discovery floods.
    #: REFER repairs locally, so this stays 0; flooding baselines pay.
    flood_comm_energy_j: float = 0.0
    #: Recovery-time analysis; populated only when the config carries
    #: ``faults`` or a ``fault_spec``.
    resilience: Optional[ResilienceSummary] = None
    #: Merged chaos event log (empty without ``faults`` or ``fault_spec``).
    fault_events: Tuple[FaultEvent, ...] = ()
    #: Self-healing stack report; populated only when the config
    #: carries a ``recovery`` block and the system is REFER.
    recovery: Optional[RecoveryReport] = None
    #: Live telemetry bundle (registry + flight recorder + profiler);
    #: populated only when the config carries a ``telemetry`` block.
    telemetry: Optional[Telemetry] = None
    #: Per-traffic-class delivery/deadline funnels (measured window);
    #: empty unless the workload emitted QoS-marked packets.
    class_stats: Tuple[ClassStat, ...] = ()

    @property
    def total_energy_j(self) -> float:
        return self.comm_energy_j + self.construction_energy_j

    @property
    def delivery_ratio(self) -> float:
        return self.delivered_qos / self.generated if self.generated else 0.0


def run_scenario(system_name: str, config: ScenarioConfig) -> RunResult:
    """Run one system once under one configuration."""
    try:
        system_cls = SYSTEMS[system_name]
    except KeyError:
        raise ConfigError(
            f"unknown system {system_name!r}; choose from {sorted(SYSTEMS)}"
        ) from None
    streams = RngStreams(config.seed)
    sim = Simulator()
    telemetry: Optional[Telemetry] = None
    if config.telemetry is not None:
        telemetry = Telemetry.from_config(config.telemetry)
        sim.set_profiler(telemetry.profiler)
        if telemetry.trace is not None:
            # Trace hooks must precede the first stream()/node use so
            # coverage is complete from t=0; installing on `streams`
            # here is safe because no stream exists yet.
            trace = telemetry.trace
            trace.bind_clock(lambda: sim.now)
            trace.bind_registry(telemetry.registry)
            sim.set_trace(trace)
            streams.set_trace(trace)
            telemetry.flight.set_tap(trace.lifecycle)
    network = WirelessNetwork(
        sim,
        streams.stream("mac"),
        telemetry=telemetry,
    )
    plan = plan_deployment(
        config.sensor_count,
        config.area_side,
        streams.stream("deployment"),
    )
    build_nodes(
        network,
        plan,
        streams.stream("mobility"),
        sensor_max_speed=config.sensor_max_speed,
    )
    if system_cls is ReferSystem:
        system = ReferSystem(
            network,
            plan,
            streams.stream("system"),
            degree=config.kautz_degree,
        )
    else:
        system = system_cls(network, plan, streams.stream("system"))

    network.set_phase(Phase.CONSTRUCTION)
    system.build()
    sim.run_until(sim.now)   # flush any same-time construction events

    network.set_phase(Phase.COMMUNICATION)
    system.start()

    qos_manager: Optional[QosManager] = None
    if config.qos is not None:
        qos_manager = QosManager(sim, network)
        qos_manager.install(network)
        if isinstance(system, ReferSystem):
            system.router.set_qos_state(qos_manager.state)

    metrics = MetricsCollector(
        sim, warmup_end=config.warmup, flight=network.flight
    )
    if config.bursty is not None:
        workload = BurstyWorkload(
            sim,
            system,
            metrics,
            streams.stream("qos.workload"),
            config=config.bursty,
            packet_bytes=config.packet_bytes,
            admission=(
                qos_manager.admission if qos_manager is not None else None
            ),
        )
    else:
        workload = CbrWorkload(
            sim,
            system,
            metrics,
            streams.stream("workload"),
            rate_pps=config.rate_pps,
            packet_bytes=config.packet_bytes,
        )
    workload.start(0.0, config.end_time)

    models = [
        (spec, f"chaos.{i}.{spec.kind}")
        for i, spec in enumerate(config.fault_spec)
    ]
    # ``config.faults`` (e2e's baselines_flood) is the coordinator's
    # first model, on its own "faults" stream.
    if config.faults is not None:
        models.insert(0, (crash_rotation(config.faults.count), "faults"))
    chaos: Optional[ChaosCoordinator] = None
    if models:
        chaos = ChaosCoordinator(network)
        for spec, stream in models:
            chaos.add(
                build_chaos_model(
                    spec, network, system, streams.stream(stream),
                    area_side=config.area_side,
                )
            )
        # REFER's fault-attribution hooks.
        if isinstance(system, ReferSystem):
            system.router.set_fault_activity(chaos.any_active)
            system.maintenance.set_fault_clock(chaos.fail_time_of)
        chaos.start()

    orchestrator: Optional[RecoveryOrchestrator] = None
    if config.recovery is not None and isinstance(system, ReferSystem):
        orchestrator = RecoveryOrchestrator(
            network,
            system,
            detector_rng=streams.stream("recovery.detector"),
            arq_rng=streams.stream("recovery.arq"),
            audit_clock=chaos.fail_time_of if chaos is not None else None,
        )
        orchestrator.start()

    sim.run_until(config.end_time + DRAIN_MARGIN)
    system.stop()
    if orchestrator is not None:
        orchestrator.stop()
    packets = metrics.fold(PROBE_WINDOW if chaos is not None else None)
    fault_events: Tuple[FaultEvent, ...] = ()
    resilience: Optional[ResilienceSummary] = None
    if chaos is not None:
        fault_events = tuple(chaos.events())
        resilience = ResilienceProbe(
            packets.window_generated, packets.window_delivered
        ).recovery_report(fault_events)
        chaos.stop()
    recovery_report: Optional[RecoveryReport] = None
    if orchestrator is not None:
        recovery_report = orchestrator.report(fault_events)
    if telemetry is not None:
        if orchestrator is not None:
            telemetry.verdicts = tuple(orchestrator.detector.verdicts)
        metrics.publish(telemetry.registry)
        telemetry.finalize()
    sim.close()

    return RunResult(
        system=system.name,
        config=config,
        throughput_bps=packets.throughput_bps(config.sim_time),
        mean_delay_s=packets.delay.mean,
        comm_energy_j=network.energy.total(Phase.COMMUNICATION),
        construction_energy_j=network.energy.total(Phase.CONSTRUCTION),
        generated=packets.generated,
        delivered_qos=packets.delivered_qos,
        delivered_total=packets.delivered_total,
        dropped=packets.dropped,
        flood_comm_energy_j=network.energy.total_by_kind(
            "flood", Phase.COMMUNICATION
        ),
        resilience=resilience,
        fault_events=fault_events,
        recovery=recovery_report,
        telemetry=telemetry,
        class_stats=packets.class_stats,
    )


_memo: Dict[tuple, RunResult] = {}


def run_scenario_cached(system_name: str, config: ScenarioConfig) -> RunResult:
    """Memoised :func:`run_scenario`.

    Runs are deterministic in (system, config), so figure sweeps that
    share points (Figs 8-11 all sweep network size over identical
    configurations) pay for each run once per process.
    """
    key = (system_name, config)
    result = _memo.get(key)
    if result is None:
        result = run_scenario(system_name, config)
        _memo[key] = result
    return result

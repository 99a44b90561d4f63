"""The single-run driver: build a world, run a system, report metrics.

One :func:`run_scenario` call reproduces one point of one figure: it
instantiates the simulator, network, deployment and the requested
system, runs construction (CONSTRUCTION ledger), starts protocols,
fault injection and workload, simulates warm-up + measurement, and
returns a :class:`RunResult`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Type

from repro.baselines import DaTreeSystem, DDearSystem, KautzOverlaySystem
from repro.chaos import (
    ChaosCoordinator,
    CrashRotationFault,
    FaultEvent,
    ResilienceProbe,
    ResilienceSummary,
    build_chaos_model,
)
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
    #: Recovery-time analysis; populated only when the config carries a
    #: ``fault_spec``.
    resilience: Optional[ResilienceSummary] = None
    #: Merged chaos event log (empty without ``fault_spec``).
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
        if telemetry.profiler is not None:
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
            if telemetry.flight is not None:
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
        sensor_range=config.sensor_range,
        actuator_range=config.actuator_range,
        sensor_max_speed=config.sensor_max_speed,
    )
    if system_cls is ReferSystem:
        from repro.core.system import ReferConfig

        system = ReferSystem(
            network,
            plan,
            streams.stream("system"),
            ReferConfig(degree=config.kautz_degree),
        )
    else:
        system = system_cls(network, plan, streams.stream("system"))

    network.set_phase(Phase.CONSTRUCTION)
    system.build()
    sim.run_until(sim.now)   # flush any same-time construction events

    network.set_phase(Phase.COMMUNICATION)
    system.start()

    qos_manager: Optional[QosManager] = None
    if config.qos is not None and config.qos.any_enabled:
        qos_manager = QosManager(sim, network, config.qos)
        qos_manager.install(network)
        qos_router = getattr(system, "router", None)
        if (
            qos_manager.state is not None
            and qos_router is not None
            and hasattr(qos_router, "set_qos_state")
        ):
            qos_router.set_qos_state(qos_manager.state)

    probe: Optional[ResilienceProbe] = None
    if config.fault_spec:
        probe = ResilienceProbe(
            sim, window=config.probe_window, registry=network.registry
        )
    metrics = MetricsCollector(
        sim,
        qos_deadline=config.qos_deadline,
        warmup_end=config.warmup,
        probe=probe,
        registry=network.registry,
        flight=network.flight,
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
            qos_deadline=config.qos_deadline,
            sources_per_window=config.sources_per_window,
            source_window=config.source_window,
        )
    workload.start(0.0, config.end_time)

    # The legacy crash-rotation path (``config.faults``) runs on the
    # chaos model with the seed injector's draw-for-draw RNG schedule,
    # keeping figures bit-exact.
    injector: Optional[CrashRotationFault] = None
    if config.faults is not None:
        fault_rng = streams.stream("faults")
        count = config.faults.count
        injector = CrashRotationFault(
            network,
            fault_rng,
            count=lambda: count,
            eligible=lambda: system.sensor_ids,
            period=config.faults.period,
        )
        injector.start(initial_delay=config.faults.period / 2.0)

    chaos: Optional[ChaosCoordinator] = None
    if config.fault_spec:
        chaos = ChaosCoordinator(network)
        for i, spec in enumerate(config.fault_spec):
            chaos.add(
                build_chaos_model(
                    spec,
                    network,
                    system,
                    streams.stream(f"chaos.{i}.{spec.kind}"),
                    area_side=config.area_side,
                )
            )
        # Fault-attribution hooks, where the system exposes them.
        router = getattr(system, "router", None)
        if router is not None and hasattr(router, "set_fault_activity"):
            router.set_fault_activity(chaos.any_active)
        maintenance = getattr(system, "maintenance", None)
        if maintenance is not None and hasattr(maintenance, "set_fault_clock"):
            maintenance.set_fault_clock(chaos.fail_time_of)
        chaos.start([spec.start for spec in config.fault_spec])

    orchestrator: Optional[RecoveryOrchestrator] = None
    if (
        config.recovery is not None
        and config.recovery.any_enabled
        and isinstance(system, ReferSystem)
    ):
        orchestrator = RecoveryOrchestrator(
            network,
            system,
            config.recovery,
            detector_rng=streams.stream("recovery.detector"),
            arq_rng=streams.stream("recovery.arq"),
            audit_clock=chaos.fail_time_of if chaos is not None else None,
            probe=probe,
        )
        orchestrator.start()

    sim.run_until(config.end_time + DRAIN_MARGIN)
    system.stop()
    if injector is not None:
        injector.stop()
    if orchestrator is not None:
        orchestrator.stop()
    fault_events: Tuple[FaultEvent, ...] = ()
    resilience: Optional[ResilienceSummary] = None
    if chaos is not None:
        fault_events = tuple(chaos.events())
        if probe is not None:
            resilience = probe.recovery_report(fault_events)
        chaos.stop()
    recovery_report: Optional[RecoveryReport] = None
    if orchestrator is not None:
        recovery_report = orchestrator.report(fault_events)
    if telemetry is not None:
        if orchestrator is not None:
            telemetry.verdicts = tuple(orchestrator.detector.verdicts)
        telemetry.finalize()

    return RunResult(
        system=system.name,
        config=config,
        throughput_bps=metrics.throughput_bps(config.sim_time),
        mean_delay_s=metrics.mean_delay,
        comm_energy_j=network.energy.total(Phase.COMMUNICATION),
        construction_energy_j=network.energy.total(Phase.CONSTRUCTION),
        generated=metrics.generated,
        delivered_qos=metrics.delivered_qos,
        delivered_total=metrics.delivered_total,
        dropped=metrics.dropped,
        flood_comm_energy_j=network.energy.total_by_kind(
            "flood", Phase.COMMUNICATION
        ),
        resilience=resilience,
        fault_events=fault_events,
        recovery=recovery_report,
        telemetry=telemetry,
        class_stats=metrics.class_stats(),
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

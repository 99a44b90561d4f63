"""Integration tests for the scenario runner (all four systems)."""

import gc

import pytest

from repro.chaos.spec import FaultSpec
from repro.errors import ConfigError
from repro.experiments.config import FaultConfig, ScenarioConfig
from repro.experiments.runner import SYSTEMS, run_scenario
from repro.net.network import WirelessNetwork
from repro.net.node import Node
from repro.qos.config import BurstyConfig, QosConfig
from repro.recovery import RecoveryConfig
from repro.sim.core import Simulator
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.tracing import TracingConfig

FAST = ScenarioConfig(sim_time=10.0, warmup=2.0, rate_pps=5.0)

#: Every opt-in subsystem on, so that each one's wiring is part of the
#: world: both ways to declare faults (an outage kind among them), the
#: recovery stack, QoS queues under bursty load, and telemetry with
#: the trace, whose clock reads the simulator.
EVERYTHING = ScenarioConfig(
    seed=9,
    sensor_count=40,
    area_side=220.0,
    sim_time=8.0,
    warmup=2.0,
    rate_pps=5.0,
    faults=FaultConfig(count=2),
    fault_spec=(
        FaultSpec(kind="actuator", count=1, period=3.0, start=2.0,
                  duration=1.5),
        FaultSpec(kind="links", mean_good=4.0, mean_bad=1.0, start=2.0),
    ),
    recovery=RecoveryConfig(),
    qos=QosConfig(),
    bursty=BurstyConfig(),
    telemetry=TelemetryConfig(tracing=TracingConfig()),
)


def _world_objects(known=frozenset()):
    """The live simulators, networks and nodes not in ``known`` (ids)."""
    return [
        obj for obj in gc.get_objects()
        if isinstance(obj, (Simulator, WirelessNetwork, Node))
        and id(obj) not in known
    ]


class TestRunner:
    def test_unknown_system_rejected(self):
        with pytest.raises(ConfigError):
            run_scenario("nope", FAST)

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_each_system_runs_and_delivers(self, name):
        result = run_scenario(name, FAST)
        assert result.system == SYSTEMS[name].name
        assert result.generated > 0
        assert result.delivered_qos > 0.5 * result.generated
        assert result.comm_energy_j > 0
        assert result.construction_energy_j > 0
        assert result.mean_delay_s > 0

    def test_deterministic_per_seed(self):
        a = run_scenario("REFER", FAST)
        b = run_scenario("REFER", FAST)
        assert a.throughput_bps == b.throughput_bps
        assert a.comm_energy_j == b.comm_energy_j
        assert a.mean_delay_s == b.mean_delay_s

    def test_seed_changes_results(self):
        a = run_scenario("REFER", FAST)
        b = run_scenario("REFER", FAST.with_(seed=2))
        assert (
            a.comm_energy_j != b.comm_energy_j
            or a.mean_delay_s != b.mean_delay_s
        )

    def test_fault_injection_runs(self):
        result = run_scenario(
            "REFER", FAST.with_(faults=FaultConfig(count=4))
        )
        assert result.generated > 0

    def test_faults_are_recorded_and_audited_like_a_fault_spec(self):
        """``faults`` runs through the chaos coordinator: its crashes
        are in the event log, the resilience probe and REFER's recovery
        audit, not only in the network."""
        result = run_scenario(
            "REFER",
            ScenarioConfig(
                seed=3, sensor_count=120, sim_time=25.0, warmup=3.0,
                faults=FaultConfig(count=6), recovery=RecoveryConfig(),
            ),
        )
        injected = [e for e in result.fault_events if e.kind == "inject"]
        assert injected and all(len(e.nodes) == 6 for e in injected)
        assert {e.model for e in result.fault_events} == {"crash-rotation"}
        assert result.resilience.fault_count == len(injected)
        assert result.recovery.missed_faults > 0
        assert result.recovery.mean_time_to_detect_s > 0

    def test_total_energy_property(self):
        result = run_scenario("DaTree", FAST)
        assert result.total_energy_j == (
            result.comm_energy_j + result.construction_energy_j
        )

    def test_delivery_ratio_property(self):
        result = run_scenario("REFER", FAST)
        assert 0 < result.delivery_ratio <= 1


class TestRunFreesItself:
    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_a_finished_run_leaves_no_cycle(self, name):
        """Reference counting alone frees a run: with the collector
        off, the result holds no simulator, network or node, and once
        it is dropped ``gc.collect()`` finds nothing the run built."""
        gc.collect()
        known = frozenset(id(obj) for obj in _world_objects())
        gc.disable()
        try:
            result = run_scenario(name, EVERYTHING)
            assert result.generated > 0
            assert result.fault_events
            assert _world_objects(known) == []
            del result
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestHeadlineOrderings:
    """The paper's headline comparisons, as cheap smoke assertions."""

    def test_refer_cheapest_communication(self):
        results = {
            name: run_scenario(name, FAST.with_(sensor_max_speed=3.0))
            for name in SYSTEMS
        }
        refer = results["REFER"].comm_energy_j
        for name, result in results.items():
            if name != "REFER":
                assert result.comm_energy_j > refer

    def test_construction_ordering(self):
        results = {name: run_scenario(name, FAST) for name in SYSTEMS}
        assert (
            results["DaTree"].construction_energy_j
            < results["D-DEAR"].construction_energy_j
            < results["REFER"].construction_energy_j
            < results["Kautz-overlay"].construction_energy_j
        )

    def test_overlay_has_highest_delay(self):
        results = {name: run_scenario(name, FAST) for name in SYSTEMS}
        overlay = results["Kautz-overlay"].mean_delay_s
        for name, result in results.items():
            if name != "Kautz-overlay":
                assert result.mean_delay_s < overlay

"""Tests for metrics collection and the CBR workload."""

import random
import signal

import pytest

from repro.experiments.config import FaultConfig, ScenarioConfig
from repro.experiments.metrics import QOS_DEADLINE, ClassStat, MetricsCollector
from repro.experiments import runner
from repro.experiments.runner import run_scenario
from repro.experiments.workload import (
    SOURCE_WINDOW,
    SOURCES_PER_WINDOW,
    CbrWorkload,
)
from repro.errors import ConfigError, TelemetryError
from repro.kautz.graph import kautz_node_count
from repro.net.packet import Packet, PacketKind
from repro.qos import BurstyConfig, QosConfig
from repro.sim.core import Simulator
from repro.telemetry.registry import Registry
from repro.util.stats import RunningStat
from repro.wsan.system import ACTUATOR_RANGE, SENSOR_RANGE


def packet(created_at, deadline=0.6):
    return Packet(PacketKind.DATA, 1000, 1, 2, created_at, deadline=deadline)


class TestScenarioConfig:
    def test_defaults_match_paper_geometry(self):
        cfg = ScenarioConfig()
        assert cfg.area_side == 500.0
        assert SENSOR_RANGE == 100.0
        assert ACTUATOR_RANGE == 250.0
        assert cfg.sensor_count == 200
        assert QOS_DEADLINE == 0.6
        assert SOURCES_PER_WINDOW == 5
        assert SOURCE_WINDOW == 10.0

    def test_with_override(self):
        cfg = ScenarioConfig().with_(sensor_count=300, seed=9)
        assert cfg.sensor_count == 300
        assert cfg.seed == 9
        assert cfg.area_side == 500.0

    def test_end_time(self):
        cfg = ScenarioConfig(sim_time=100, warmup=10)
        assert cfg.end_time == 110

    def test_validation(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(sensor_count=5)
        # The floor is every cell's sensor vertices: 4 cells x (|K(d,3)|
        # less the cell's 3 actuators).  Below it embedding died in
        # EmbeddingError (seeds 1-6); at it REFER runs, at 220, 500 and
        # 2000 m sides alike.
        for degree, floor in ((2, 36), (3, 132)):
            with pytest.raises(ConfigError, match=f"at least {floor} sensors"):
                ScenarioConfig(kautz_degree=degree, sensor_count=floor - 1)
            assert ScenarioConfig(
                kautz_degree=degree, sensor_count=floor
            ).sensor_count == floor
        sparse = ScenarioConfig(
            sensor_count=36, area_side=2000.0, sim_time=2.0, warmup=0.5
        )
        assert run_scenario("REFER", sparse).generated > 0
        with pytest.raises(ConfigError):
            ScenarioConfig(sim_time=0)
        with pytest.raises(ConfigError):
            ScenarioConfig(rate_pps=0)
        with pytest.raises(ConfigError):
            FaultConfig(count=-1)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("sensor_max_speed", -1.0),   # bare ValueError: invalid speed range
            ("sensor_max_speed", float("nan")),
            ("sensor_max_speed", float("inf")),
        ],
    )
    def test_refuses_values_no_run_survives(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ScenarioConfig(**{field: value})

    @pytest.mark.parametrize("system", ["REFER", "DaTree"])
    def test_packet_bytes_stops_where_the_ledger_column_does(self, system):
        """``2**31`` was accepted, and the run died with a bare
        ``OverflowError`` when the ledger's ``array("i")`` size column
        took its first row; one byte less runs to completion."""
        largest = ScenarioConfig(
            sensor_count=60, area_side=260.0, sim_time=2.0,
            packet_bytes=2**31 - 1,
        )
        assert run_scenario(system, largest).generated > 0
        with pytest.raises(ConfigError, match="packet_bytes"):
            largest.with_(packet_bytes=2**31)

    @pytest.mark.skipif(
        not hasattr(signal, "SIGALRM"), reason="the deadline is a POSIX alarm"
    )
    @pytest.mark.parametrize(
        "field,value",
        [
            ("sim_time", float("nan")),   # never returned
            ("warmup", float("inf")),     # never returned
            ("rate_pps", float("inf")),   # never returned
            ("rate_pps", float("nan")),   # ran, generated 0 packets
            ("area_side", float("nan")),  # bare ValueError
            ("area_side", float("inf")),  # bare OverflowError
        ],
    )
    def test_one_field_inputs_are_refused_before_a_deadline(
        self, field, value
    ):
        """Each input hung or leaked a bare error from ``run_scenario``
        (60 sensors, 2 s).  ``ScenarioConfig`` refuses all six today, so
        the alarm only matters the day a check is lost: the suite then
        fails here after 15 s and does not hang."""

        def expired(signum, frame):
            raise TimeoutError(f"{field}={value} still running after 15 s")

        small = dict(sensor_count=60, area_side=260.0, sim_time=2.0)
        previous = signal.signal(signal.SIGALRM, expired)
        signal.alarm(15)
        try:
            with pytest.raises(ConfigError, match=field):
                run_scenario(
                    "REFER", ScenarioConfig(**{**small, field: value})
                )
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("degree", [2, 3])
    def test_sensor_floor_is_the_order_of_the_cell_graph(self, degree):
        """The floor follows the order of the cell graph K(d,3): each of
        the quadrant layout's 4 cells needs that many vertices less its 3
        actuators, all of them sensors."""
        floor = 4 * (kautz_node_count(degree, 3) - 3)
        with pytest.raises(ConfigError, match=f"at least {floor} sensors"):
            ScenarioConfig(kautz_degree=degree, sensor_count=floor - 1)
        assert ScenarioConfig(
            kautz_degree=degree, sensor_count=floor
        ).sensor_count == floor

    def test_boundary_values_stay_legal(self):
        assert ScenarioConfig(sensor_max_speed=0.0).sensor_max_speed == 0.0


class TestMetrics:
    def test_warmup_packets_ignored(self):
        sim = Simulator()
        metrics = MetricsCollector(sim, warmup_end=10.0)
        metrics.on_generated(packet(5.0))
        metrics.on_delivered(packet(5.0))
        metrics.on_dropped(packet(5.0), "hop-limit")
        packets = metrics.fold()
        assert packets.generated == 0
        assert packets.delivered_total == 0
        assert packets.dropped == 0
        # The rows are kept: warm-up only leaves them out of the fold.
        assert len(metrics.ledger.code) == 3

    def test_a_drop_without_a_named_reason_raises(self):
        metrics = MetricsCollector(Simulator(), warmup_end=0.0)
        unnamed = packet(1.0)
        with pytest.raises(TelemetryError, match=f"packet {unnamed.uid} "):
            metrics.on_dropped(unnamed, "")
        assert metrics.fold().dropped == 0

    @pytest.mark.parametrize("reason", ["lost", "deadline-expired", "Hop-Limit"])
    def test_a_drop_for_a_reason_outside_the_taxonomy_raises(self, reason):
        """Any non-empty string used to pass; the taxonomy is checked
        where a reason is recorded, not only by the static scan."""
        metrics = MetricsCollector(Simulator(), warmup_end=0.0)
        dropped = packet(1.0)
        with pytest.raises(TelemetryError, match=f"packet {dropped.uid} "):
            metrics.on_dropped(dropped, reason)
        assert metrics.fold().dropped == 0

    def test_qos_window(self):
        sim = Simulator()
        metrics = MetricsCollector(sim, warmup_end=0.0)
        sim.schedule(0.5, lambda: metrics.on_delivered(packet(0.0)))
        sim.schedule(1.0, lambda: metrics.on_delivered(packet(0.1)))
        sim.run()
        packets = metrics.fold()
        assert packets.delivered_total == 2
        assert packets.delivered_qos == 1
        assert packets.qos_bytes == 1000

    def test_throughput(self):
        sim = Simulator()
        metrics = MetricsCollector(sim, warmup_end=0.0)
        sim.schedule(0.1, lambda: metrics.on_delivered(packet(0.0)))
        sim.run()
        assert metrics.fold().throughput_bps(10.0) == 1000 * 8 / 10.0

    def test_throughput_invalid_window(self):
        metrics = MetricsCollector(Simulator(), 0.0)
        with pytest.raises(ValueError):
            metrics.fold().throughput_bps(0.0)

    def test_delay_only_counts_qos_packets(self):
        sim = Simulator()
        metrics = MetricsCollector(sim, warmup_end=0.0)
        sim.schedule(0.2, lambda: metrics.on_delivered(packet(0.0)))
        sim.schedule(5.0, lambda: metrics.on_delivered(packet(0.1)))
        sim.run()
        packets = metrics.fold()
        assert packets.delay.mean == pytest.approx(0.2)
        assert packets.delivered_total == 2

    def test_delivery_ratio(self):
        sim = Simulator()
        metrics = MetricsCollector(sim, warmup_end=0.0)
        metrics.on_generated(packet(0.0))
        metrics.on_generated(packet(0.0))
        sim.schedule(0.1, lambda: metrics.on_delivered(packet(0.0)))
        sim.run()
        packets = metrics.fold()
        assert (packets.generated, packets.delivered_qos) == (2, 1)

    def test_delay_folds_in_delivery_order(self):
        """Welford's floats depend on the order of their samples: the
        fold adds in-deadline latencies in row order, which is
        delivery order, not creation order."""
        sim = Simulator()
        metrics = MetricsCollector(sim, warmup_end=0.0)
        rows = ((0.3, 0.41), (0.0, 0.57), (0.2, 0.23))   # (created, at)
        for created, at in rows:
            sim.schedule(at, lambda c=created: metrics.on_delivered(packet(c)))
        sim.run()
        expected = RunningStat()
        for created, at in sorted(rows, key=lambda row: row[1]):
            expected.add(at - created)
        packets = metrics.fold()
        assert packets.delay.mean == expected.mean

    def test_class_funnels(self):
        sim = Simulator()
        metrics = MetricsCollector(sim, warmup_end=1.0)

        early = marked(0.5, "bulk", None)       # warm-up: not counted
        on_time = marked(1.0, "alarm", 0.25)
        late = marked(1.0, "alarm", 0.25)
        shed = marked(1.0, "control", 0.6)
        for p in (early, on_time, late, shed):
            metrics.on_generated(p)
        sim.schedule(1.1, lambda: metrics.on_delivered(on_time))
        sim.schedule(1.5, lambda: metrics.on_delivered(late))
        sim.schedule(1.2, lambda: metrics.on_dropped(shed, "backpressure_shed"))
        sim.run()
        assert metrics.fold().class_stats == (
            ClassStat("alarm", 2, 2, 1, 0),
            ClassStat("control", 1, 0, 0, 1),
        )
        assert MetricsCollector(sim, 0.0).fold().class_stats == ()


def marked(created_at, cls, deadline):
    return Packet(
        PacketKind.DATA, 100, 0, 1, created_at,
        deadline=deadline, traffic_class=cls,
    )


class TestPublish:
    """``publish`` folds a hand-built ledger into a registry."""

    PACKET_FAMILIES = {
        "packets_generated", "packets_delivered", "packets_dropped",
        "delivery_latency_seconds",
    }

    def test_an_empty_ledger_creates_the_four_families_bare(self):
        registry = Registry()
        MetricsCollector(Simulator(), warmup_end=0.0).publish(registry)
        assert registry.as_dict() == {
            name: {} for name in self.PACKET_FAMILIES
        }

    def test_every_row_counts_warm_up_included(self):
        sim = Simulator()
        metrics = MetricsCollector(sim, warmup_end=10.0)
        for created in (5.0, 12.0, 12.0):
            metrics.on_generated(packet(created))
        sim.schedule(12.5, lambda: metrics.on_delivered(packet(12.0)))
        sim.schedule(13.0, lambda: metrics.on_dropped(packet(5.0), "no-route"))
        sim.schedule(14.0, lambda: metrics.on_dropped(packet(12.0), "hop-limit"))
        sim.schedule(15.0, lambda: metrics.on_dropped(packet(12.0), "no-route"))
        sim.run()
        registry = Registry()
        metrics.publish(registry)
        values = registry.as_dict()
        assert values["packets_generated"] == {(): 3}
        assert values["packets_delivered"] == {(): 1}
        # Children in first-use (row) order.
        assert list(values["packets_dropped"].items()) == [
            (("no-route",), 2), (("hop-limit",), 1),
        ]
        assert not any(name.startswith("qos_class_") for name in values)

    def test_latencies_are_observed_in_row_order(self):
        sim = Simulator()
        metrics = MetricsCollector(sim, warmup_end=0.0)
        rows = ((0.3, 0.41), (0.0, 0.57), (0.2, 0.23), (0.1, 2.9))
        for created, at in rows:
            sim.schedule(at, lambda c=created: metrics.on_delivered(packet(c)))
        sim.run()
        registry = Registry()
        metrics.publish(registry)
        hist = registry.get("delivery_latency_seconds").child()
        expected = registry.histogram("expected", buckets=hist.bounds).child()
        for created, at in sorted(rows, key=lambda row: row[1]):
            expected.observe(at - created)
        assert hist.sum == expected.sum
        assert hist.bucket_counts() == expected.bucket_counts()

    def test_class_families_appear_at_the_first_marked_row(self):
        sim = Simulator()
        metrics = MetricsCollector(sim, warmup_end=1.0)
        metrics.on_generated(packet(0.2))                 # unmarked
        early = marked(0.5, "bulk", None)                 # warm-up: counted
        on_time = marked(1.0, "alarm", 0.25)
        late = marked(1.0, "alarm", 0.25)
        shed = marked(1.0, "control", 0.6)
        for p in (early, on_time, late, shed):
            metrics.on_generated(p)
        sim.schedule(1.1, lambda: metrics.on_delivered(on_time))
        sim.schedule(1.2, lambda: metrics.on_dropped(shed, "backpressure_shed"))
        sim.schedule(1.5, lambda: metrics.on_delivered(late))
        sim.run()
        registry = Registry()
        metrics.publish(registry)
        values = registry.as_dict()
        assert list(values["qos_class_generated"].items()) == [
            (("bulk",), 1), (("alarm",), 2), (("control",), 1),
        ]
        assert values["qos_class_delivered"] == {("alarm",): 2}
        assert values["qos_class_deadline_missed"] == {("alarm",): 1}
        assert values["qos_class_latency_seconds"] == {("alarm",): 2}
        assert values["qos_class_dropped"] == {
            ("control", "backpressure_shed"): 1,
        }
        assert values["packets_generated"] == {(): 5}

    def test_a_run_without_telemetry_publishes_nothing(self, monkeypatch):
        built = []

        class _Kept(runner.WirelessNetwork):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(runner, "WirelessNetwork", _Kept)
        run_scenario(
            "REFER",
            ScenarioConfig(
                sensor_count=40, area_side=220.0, sim_time=4.0, warmup=1.0,
                qos=QosConfig(), bursty=BurstyConfig(sources=4),
            ),
        )
        (network,) = built
        names = {family.name for family in network.registry.families()}
        assert names, "the run registered no family at all"
        assert not {
            name for name in names
            if name.startswith(("packets_", "qos_class_"))
            or name == "delivery_latency_seconds"
        }


class _StubSystem:
    """Minimal WsanSystem-alike that delivers instantly."""

    def __init__(self, sim, sensor_ids, network):
        self._sim = sim
        self.sensor_ids = list(sensor_ids)
        self.network = network
        self.sent = []

    def send_event(self, source_id, pkt, on_delivered=None, on_dropped=None):
        self.sent.append((source_id, pkt))
        if on_delivered is not None:
            self._sim.schedule(0.01, lambda: on_delivered(pkt))


class _StubNetwork:
    class _N:
        usable = True

    def node(self, node_id):
        return self._N()


class TestWorkload:
    def build(self, rate=10.0):
        sim = Simulator()
        metrics = MetricsCollector(sim, warmup_end=0.0)
        system = _StubSystem(sim, range(100, 160), _StubNetwork())
        workload = CbrWorkload(
            sim, system, metrics, random.Random(1),
            rate_pps=rate, packet_bytes=500,
        )
        return sim, metrics, system, workload

    def test_packet_count_matches_rate(self):
        sim, metrics, system, workload = self.build(rate=10.0)
        workload.start(0.0, SOURCE_WINDOW)
        sim.run_until(SOURCE_WINDOW + 1.0)
        # sources x rate x duration
        expected = SOURCES_PER_WINDOW * 10 * SOURCE_WINDOW
        assert abs(len(system.sent) - expected) <= SOURCES_PER_WINDOW

    def test_sources_rotate_each_window(self):
        sim, metrics, system, workload = self.build(rate=2.0)
        workload.start(0.0, 3 * SOURCE_WINDOW)
        sim.run_until(3 * SOURCE_WINDOW + 1.0)
        assert workload.windows == 3
        by_window = {}
        for src, pkt in system.sent:
            by_window.setdefault(
                int(pkt.created_at // SOURCE_WINDOW), set()
            ).add(src)
        assert len(set(map(frozenset, by_window.values()))) > 1

    def test_metrics_fed(self):
        sim, metrics, system, workload = self.build(rate=5.0)
        workload.start(0.0, 10.0)
        sim.run_until(12.0)
        packets = metrics.fold()
        assert packets.generated == len(system.sent)
        assert packets.delivered_qos == packets.generated

    def test_generation_stops_at_end(self):
        sim, metrics, system, workload = self.build(rate=5.0)
        workload.start(0.0, 10.0)
        sim.run_until(50.0)
        assert all(pkt.created_at < 10.0 for _, pkt in system.sent)

    def test_packets_carry_deadline_and_kind(self):
        sim, metrics, system, workload = self.build(rate=2.0)
        workload.start(0.0, 10.0)
        sim.run_until(11.0)
        for _, pkt in system.sent:
            assert pkt.deadline == QOS_DEADLINE
            assert pkt.kind is PacketKind.DATA
            assert pkt.size_bytes == 500

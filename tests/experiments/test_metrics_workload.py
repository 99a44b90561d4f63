"""Tests for metrics collection and the CBR workload."""

import random
import signal

import pytest

from repro.experiments.config import FaultConfig, ScenarioConfig
from repro.experiments.metrics import MetricsCollector
from repro.experiments.runner import run_scenario
from repro.experiments.workload import CbrWorkload
from repro.errors import ConfigError
from repro.net.packet import Packet, PacketKind
from repro.sim.core import Simulator


def packet(created_at, deadline=0.6):
    return Packet(PacketKind.DATA, 1000, 1, 2, created_at, deadline=deadline)


class TestScenarioConfig:
    def test_defaults_match_paper_geometry(self):
        cfg = ScenarioConfig()
        assert cfg.area_side == 500.0
        assert cfg.sensor_range == 100.0
        assert cfg.actuator_range == 250.0
        assert cfg.sensor_count == 200
        assert cfg.qos_deadline == 0.6
        assert cfg.sources_per_window == 5
        assert cfg.source_window == 10.0

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
        with pytest.raises(ConfigError):
            ScenarioConfig(sim_time=0)
        with pytest.raises(ConfigError):
            ScenarioConfig(rate_pps=0)
        with pytest.raises(ConfigError):
            FaultConfig(count=-1)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("source_window", 0.0),       # CbrWorkload.start never returned
            ("source_window", float("nan")),
            ("sensor_range", 0.0),        # NetworkError from construction
            ("sensor_range", float("nan")),
            ("actuator_range", -5.0),
            ("sensor_max_speed", -1.0),   # bare ValueError: invalid speed range
            ("sensor_max_speed", float("nan")),
            ("sensor_max_speed", float("inf")),
        ],
    )
    def test_refuses_values_no_run_survives(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ScenarioConfig(**{field: value})

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
            ("sources_per_window", -1),   # bare ValueError from sample()
        ],
    )
    def test_one_field_inputs_are_refused_before_a_deadline(
        self, field, value
    ):
        """Each input hung or leaked a bare error from ``run_scenario``
        (60 sensors, 2 s).  ``ScenarioConfig`` refuses all seven today, so
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

    @pytest.mark.parametrize("degree,floor", [(2, 12), (3, 36)])
    def test_sensor_floor_is_the_order_of_the_cell_graph(self, degree, floor):
        with pytest.raises(ConfigError, match=f"at least {floor} sensors"):
            ScenarioConfig(kautz_degree=degree, sensor_count=floor - 1)
        assert ScenarioConfig(
            kautz_degree=degree, sensor_count=floor
        ).sensor_count == floor

    def test_boundary_values_stay_legal(self):
        assert ScenarioConfig(source_window=float("inf")).source_window > 0
        assert ScenarioConfig(sensor_max_speed=0.0).sensor_max_speed == 0.0


class TestMetrics:
    def test_warmup_packets_ignored(self):
        sim = Simulator()
        metrics = MetricsCollector(sim, 0.6, warmup_end=10.0)
        metrics.on_generated(packet(5.0))
        metrics.on_delivered(packet(5.0))
        metrics.on_dropped(packet(5.0))
        assert metrics.generated == 0
        assert metrics.delivered_total == 0
        assert metrics.dropped == 0

    def test_qos_window(self):
        sim = Simulator()
        metrics = MetricsCollector(sim, 0.6, warmup_end=0.0)
        sim.schedule(0.5, lambda: metrics.on_delivered(packet(0.0)))
        sim.schedule(1.0, lambda: metrics.on_delivered(packet(0.1)))
        sim.run()
        assert metrics.delivered_total == 2
        assert metrics.delivered_qos == 1
        assert metrics.qos_bytes == 1000

    def test_throughput(self):
        sim = Simulator()
        metrics = MetricsCollector(sim, 0.6, warmup_end=0.0)
        sim.schedule(0.1, lambda: metrics.on_delivered(packet(0.0)))
        sim.run()
        assert metrics.throughput_bps(10.0) == 1000 * 8 / 10.0

    def test_throughput_invalid_window(self):
        metrics = MetricsCollector(Simulator(), 0.6, 0.0)
        with pytest.raises(ValueError):
            metrics.throughput_bps(0.0)

    def test_delay_only_counts_qos_packets(self):
        sim = Simulator()
        metrics = MetricsCollector(sim, 0.6, warmup_end=0.0)
        sim.schedule(0.2, lambda: metrics.on_delivered(packet(0.0)))
        sim.schedule(5.0, lambda: metrics.on_delivered(packet(0.1)))
        sim.run()
        assert metrics.mean_delay == pytest.approx(0.2)
        assert metrics.all_delay.count == 2

    def test_delivery_ratio(self):
        sim = Simulator()
        metrics = MetricsCollector(sim, 0.6, warmup_end=0.0)
        assert metrics.delivery_ratio == 0.0
        metrics.on_generated(packet(0.0))
        metrics.on_generated(packet(0.0))
        sim.schedule(0.1, lambda: metrics.on_delivered(packet(0.0)))
        sim.run()
        assert metrics.delivery_ratio == 0.5


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
    def build(self, rate=10.0, window=10.0, sources=3):
        sim = Simulator()
        metrics = MetricsCollector(sim, 0.6, warmup_end=0.0)
        system = _StubSystem(sim, range(100, 160), _StubNetwork())
        workload = CbrWorkload(
            sim, system, metrics, random.Random(1),
            rate_pps=rate, packet_bytes=500, qos_deadline=0.6,
            sources_per_window=sources, source_window=window,
        )
        return sim, metrics, system, workload

    def test_packet_count_matches_rate(self):
        sim, metrics, system, workload = self.build(rate=10.0, sources=3)
        workload.start(0.0, 10.0)
        sim.run_until(11.0)
        expected = 3 * 10 * 10   # sources x rate x duration
        assert abs(len(system.sent) - expected) <= 3

    def test_sources_rotate_each_window(self):
        sim, metrics, system, workload = self.build(rate=2.0)
        workload.start(0.0, 30.0)
        sim.run_until(31.0)
        assert workload.windows == 3
        by_window = {}
        for src, pkt in system.sent:
            by_window.setdefault(int(pkt.created_at // 10), set()).add(src)
        assert len(set(map(frozenset, by_window.values()))) > 1

    def test_metrics_fed(self):
        sim, metrics, system, workload = self.build(rate=5.0)
        workload.start(0.0, 10.0)
        sim.run_until(12.0)
        assert metrics.generated == len(system.sent)
        assert metrics.delivered_qos == metrics.generated

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
            assert pkt.deadline == 0.6
            assert pkt.kind is PacketKind.DATA
            assert pkt.size_bytes == 500

"""Unit tests for the message-grounded failure detector."""

import random

from repro.net.mac import MacConfig
from repro.net.mobility import StaticMobility
from repro.net.network import WirelessNetwork
from repro.net.node import Node, NodeRole
from repro.recovery import FailureDetector, RecoveryConfig
from repro.recovery.detector import MIN_TIMEOUT
from repro.sim.core import Simulator
from repro.util.geometry import Point


def build_net(count=4, spacing=60.0, seed=3, **mac_kwargs):
    """A line of sensors, each within range of every other."""
    sim = Simulator()
    net = WirelessNetwork(
        sim, random.Random(seed), mac_config=MacConfig(**mac_kwargs)
    )
    for i in range(count):
        net.add_node(
            Node(
                i,
                NodeRole.SENSOR,
                StaticMobility(Point(i * spacing, 0.0)),
                400.0,
            )
        )
    return sim, net


def build_detector(net, pairs, seed=7, **overrides):
    config = RecoveryConfig(**overrides)
    return FailureDetector(
        net,
        random.Random(seed),
        config,
        pairs=lambda: pairs,
        audit_usable=lambda n: net.node(n).usable,
    )


class TestHeartbeat:
    def test_live_target_never_condemned(self):
        sim, net = build_net()
        det = build_detector(net, [(0, 1)], detector_period=0.5)
        det.start()
        sim.run_until(20.0)
        assert det.stats.condemnations == 0
        assert not det.condemned(1)
        assert det.stats.replies > 0
        assert det.was_watched(1)

    def test_dead_target_condemned_within_threshold_rounds(self):
        sim, net = build_net()
        det = build_detector(
            net, [(0, 1)], detector_period=0.5, suspicion_threshold=3
        )
        det.start()
        sim.run_until(5.0)
        net.fail_node(1)
        sim.run_until(5.0 + 0.5 * 8)
        assert det.condemned(1)
        assert det.stats.condemnations == 1
        # Ground truth agrees: the condemned node really was down.
        assert det.stats.false_positives == 0

    def test_recovered_target_absolved(self):
        sim, net = build_net()
        det = build_detector(net, [(0, 1)], detector_period=0.5)
        det.start()
        sim.run_until(2.0)
        net.fail_node(1)
        sim.run_until(10.0)
        assert det.condemned(1)
        net.recover_node(1)
        sim.run_until(16.0)
        assert not det.condemned(1)
        assert det.stats.absolutions == 1

    def test_verdict_listener_sees_both_kinds(self):
        sim, net = build_net()
        det = build_detector(net, [(0, 1)], detector_period=0.5)
        events = []
        det.add_listener(events.append)
        det.start()
        sim.run_until(2.0)
        net.fail_node(1)
        sim.run_until(10.0)
        net.recover_node(1)
        sim.run_until(16.0)
        kinds = [e.kind for e in events]
        assert kinds == ["condemn", "absolve"]
        assert all(e.node_id == 1 for e in events)

    def test_adaptive_timeout_learns_the_rtt(self):
        sim, net = build_net()
        det = build_detector(net, [(0, 1)], detector_period=0.5)
        initial = det.timeout_of(1)
        det.start()
        sim.run_until(10.0)
        learned = det.timeout_of(1)
        # The probe RTT on an idle link is a few ms; the adaptive
        # timeout collapses from the conservative prior to the floor.
        assert learned < initial
        assert learned == MIN_TIMEOUT

    def test_fixed_timeout_mode_never_adapts(self):
        sim, net = build_net()
        det = build_detector(
            net, [(0, 1)], detector_period=0.5,
            adaptive_timeout=False, fixed_timeout=0.2,
        )
        det.start()
        sim.run_until(10.0)
        assert det.timeout_of(1) == 0.2

    def test_battery_is_self_reported(self):
        sim, net = build_net()
        node = net.node(1)
        node.battery_joules = 100.0
        det = build_detector(net, [(0, 1)], detector_period=0.5)
        det.start()
        sim.run_until(3.0)
        first = det.reported_battery(1)
        node.consumed_joules = 60.0
        sim.run_until(6.0)
        assert det.reported_battery(1) < first
        assert abs(det.reported_battery(1) - node.battery_fraction) < 0.05

    def test_unwatched_node_defaults(self):
        sim, net = build_net()
        det = build_detector(net, [(0, 1)])
        assert not det.condemned(99)
        assert det.reported_battery(99) == 1.0
        assert not det.was_watched(99)

    def test_forget_clears_suspicion_history(self):
        sim, net = build_net()
        det = build_detector(net, [(0, 1)], detector_period=0.5)
        det.start()
        sim.run_until(2.0)
        net.fail_node(1)
        sim.run_until(10.0)
        assert det.condemned(1)
        det.forget(1)
        assert not det.condemned(1)

    def test_dead_monitor_records_nothing(self):
        sim, net = build_net()
        det = build_detector(net, [(0, 1)], detector_period=0.5)
        det.start()
        sim.run_until(2.0)
        misses_before = det.stats.misses
        # Kill monitor AND target: the monitor's pending deadlines must
        # not produce miss records (its timers died with it).
        net.fail_node(0)
        net.fail_node(1)
        sim.run_until(12.0)
        assert det.stats.misses == misses_before
        assert not det.condemned(1)

    def test_probe_energy_charged_to_probe_ledger(self):
        sim, net = build_net()
        det = build_detector(net, [(0, 1)], detector_period=0.5)
        det.start()
        sim.run_until(5.0)
        assert net.energy.total_by_kind("probe") > 0.0

    def test_same_seed_same_verdict_schedule(self):
        timelines = []
        for _ in range(2):
            sim, net = build_net()
            det = build_detector(net, [(0, 1)], detector_period=0.5)
            det.start()
            sim.run_until(2.0)
            net.fail_node(1)
            sim.run_until(12.0)
            timelines.append([(e.time, e.node_id, e.kind) for e in det.verdicts])
        assert timelines[0] == timelines[1]

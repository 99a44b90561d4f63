"""Tests for the chaos fault-model library."""

import random

from repro.chaos import (
    ActuatorOutageFault,
    BatteryDepletionFault,
    ChaosCoordinator,
    CrashRotationFault,
    FaultSpec,
    GilbertElliottLinkFault,
    PermanentCrashFault,
    RegionalBlackoutFault,
)
from repro.chaos.models import BAD_QUALITY, TARGET_FRACTION
from repro.net.mobility import StaticMobility
from repro.net.network import WirelessNetwork
from repro.net.node import Node, NodeRole
from repro.sim.core import Simulator
from repro.util.geometry import Point


def build_grid(side=4, spacing=70.0, seed=1, actuators=0):
    """A side x side grid; the first ``actuators`` nodes are actuators."""
    sim = Simulator()
    net = WirelessNetwork(sim, random.Random(seed))
    for i in range(side):
        for j in range(side):
            node_id = i * side + j
            role = NodeRole.ACTUATOR if node_id < actuators else NodeRole.SENSOR
            net.add_node(
                Node(
                    node_id,
                    role,
                    StaticMobility(Point(i * spacing, j * spacing)),
                    100.0,
                )
            )
    return sim, net


def all_ids(net):
    return net.medium.node_ids()


class TestCrashRotation:
    def test_rotates_and_records_events(self):
        sim, net = build_grid()
        fault = CrashRotationFault(
            net, random.Random(5),
            FaultSpec(kind="rotation", count=3, period=10.0), net.medium.node_ids,
        )
        fault.start()
        sim.run_until(5.0)
        first = set(fault._fail_times)
        assert len(first) == 3
        assert all(not net.node(n).usable for n in first)
        assert all(fault.fail_time_of(n) == 0.0 for n in first)
        sim.run_until(15.0)
        second = set(fault._fail_times)
        assert len(second) == 3
        for n in first - second:
            assert net.node(n).usable
        kinds = [e.kind for e in fault.events]
        assert kinds == ["inject", "recover", "inject"]
        assert fault.events[1].time == 10.0

    def test_stop_without_recover_leaves_damage(self):
        sim, net = build_grid()
        fault = CrashRotationFault(
            net, random.Random(5),
            FaultSpec(kind="rotation", count=2), net.medium.node_ids,
        )
        fault.start()
        sim.run_until(1.0)
        broken = set(fault._fail_times)
        fault.stop(recover=False)
        assert all(not net.node(n).usable for n in broken)
        assert set(fault._fail_times) == broken

    def test_stop_with_recover_heals(self):
        sim, net = build_grid()
        fault = CrashRotationFault(
            net, random.Random(5),
            FaultSpec(kind="rotation", count=2), net.medium.node_ids,
        )
        fault.start()
        sim.run_until(1.0)
        fault.stop()
        assert not set(fault._fail_times)
        assert all(net.node(n).usable for n in all_ids(net))

    def test_rounds_cap_leaves_the_last_set_down(self):
        """``rounds`` binds the rotation like every scheduled kind: two
        rounds and no more, and the second round's set stays down until
        teardown, as a permanent crash does."""
        sim, net = build_grid()
        fault = CrashRotationFault(
            net, random.Random(5),
            FaultSpec(kind="rotation", count=2, period=5.0, rounds=2),
            net.medium.node_ids,
        )
        fault.start()
        sim.run_until(30.0)
        assert fault.rounds == 2
        assert [e.kind for e in fault.events] == ["inject", "recover", "inject"]
        last = set(fault.events[-1].nodes)
        assert set(fault._fail_times) == last
        assert all(not net.node(n).usable for n in last)
        fault.stop()
        assert all(net.node(n).usable for n in all_ids(net))


class TestPermanentCrash:
    def test_attrition_accumulates(self):
        sim, net = build_grid()
        fault = PermanentCrashFault(
            net, random.Random(2),
            FaultSpec(kind="permanent", count=2, period=5.0), net.medium.node_ids,
        )
        fault.start()
        sim.run_until(11.0)
        assert len(set(fault._fail_times)) == 6   # rounds at t = 0, 5, 10
        assert all(not net.node(n).usable for n in set(fault._fail_times))
        assert all(e.kind == "inject" for e in fault.events)

    def test_rounds_cap(self):
        sim, net = build_grid()
        fault = PermanentCrashFault(
            net, random.Random(2),
            FaultSpec(kind="permanent", count=2, period=5.0, rounds=2),
            net.medium.node_ids,
        )
        fault.start()
        sim.run_until(30.0)
        assert fault.rounds == 2
        assert len(set(fault._fail_times)) == 4


class TestActuatorOutage:
    def test_targets_actuators_and_recovers(self):
        sim, net = build_grid(actuators=3)
        actuator_ids = [0, 1, 2]
        fault = ActuatorOutageFault(
            net, random.Random(3),
            FaultSpec(kind="actuator", count=2, period=20.0, duration=5.0),
            lambda: actuator_ids,
        )
        fault.start()
        sim.run_until(1.0)
        down = set(fault._fail_times)
        assert len(down) == 2
        assert down <= set(actuator_ids)
        sim.run_until(6.0)   # past the outage duration
        assert not set(fault._fail_times)
        assert all(net.node(a).usable for a in actuator_ids)

    def test_stop_without_recover_leaves_the_outage_in_place(self):
        sim, net = build_grid(actuators=3)
        fault = ActuatorOutageFault(
            net, random.Random(3),
            FaultSpec(kind="actuator", count=2, period=20.0, duration=8.0),
            lambda: [0, 1, 2],
        )
        fault.start()
        sim.run_until(1.0)
        down = set(fault._fail_times)
        assert len(down) == 2
        fault.stop(recover=False)
        sim.run_until(10.0)   # past the outage duration
        assert set(fault._fail_times) == down
        assert all(not net.node(a).usable for a in down)
        assert [e.kind for e in fault.events] == ["inject"]


class TestRegionalBlackout:
    def test_disc_fails_and_recovers(self):
        sim, net = build_grid(spacing=70.0)
        fault = RegionalBlackoutFault(
            net, random.Random(4),
            FaultSpec(kind="blackout", radius=80.0, duration=5.0, period=20.0),
            area_side=210.0,
        )
        fault.start()
        sim.run_until(1.0)
        now = sim.now
        center = fault.last_center
        inside = {
            n for n in all_ids(net)
            if net.node(n).position(now).distance_to(center) <= 80.0
        }
        assert set(fault._fail_times) == inside
        # Every point of the area is within 50 m of a grid node.
        assert inside
        sim.run_until(6.0)
        assert not set(fault._fail_times)

    def test_random_center_inside_area(self):
        sim, net = build_grid()
        fault = RegionalBlackoutFault(
            net, random.Random(4),
            FaultSpec(kind="blackout", radius=60.0, duration=5.0, period=20.0),
            area_side=210.0,
        )
        fault.start()
        sim.run_until(1.0)
        assert fault.last_center is not None
        assert 0.0 <= fault.last_center.x <= 210.0
        assert 0.0 <= fault.last_center.y <= 210.0

    def test_stop_without_recover_leaves_the_outage_in_place(self):
        sim, net = build_grid(spacing=70.0)
        fault = RegionalBlackoutFault(
            net, random.Random(4),
            FaultSpec(kind="blackout", radius=80.0, duration=5.0, period=20.0),
            area_side=210.0,
        )
        fault.start()
        sim.run_until(1.0)
        down = set(fault._fail_times)
        assert down
        fault.stop(recover=False)
        sim.run_until(10.0)   # past the outage duration
        assert set(fault._fail_times) == down
        assert all(not net.node(n).usable for n in down)
        assert [e.kind for e in fault.events] == ["inject"]


class TestBatteryDepletion:
    def test_drains_below_threshold_not_dead(self):
        sim, net = build_grid()
        fault = BatteryDepletionFault(
            net, random.Random(6),
            FaultSpec(kind="battery", count=3), net.medium.node_ids,
        )
        fault.start()
        sim.run_until(1.0)
        assert len(fault.drained) == 3
        for n in fault.drained:
            node = net.node(n)
            # The attack installs a meter and leaves a sliver of charge:
            # below any maintenance threshold, but still usable.
            assert node.battery_joules is not None
            assert node.usable
            assert node.battery_fraction <= TARGET_FRACTION + 1e-9
        assert fault.active()

    def test_stop_does_not_restore_energy(self):
        sim, net = build_grid()
        fault = BatteryDepletionFault(
            net, random.Random(6),
            FaultSpec(kind="battery", count=2), net.medium.node_ids,
        )
        fault.start()
        sim.run_until(1.0)
        drained = set(fault.drained)
        fault.stop()
        for n in drained:
            assert net.node(n).battery_fraction <= TARGET_FRACTION + 1e-9
        assert fault.active()   # damage persists

    def test_respects_existing_meter(self):
        sim, net = build_grid()
        net.node(0).battery_joules = 500.0
        fault = BatteryDepletionFault(
            net, random.Random(6),
            FaultSpec(kind="battery", count=16), net.medium.node_ids,
        )
        fault.start()
        sim.run_until(1.0)
        assert net.node(0).battery_joules == 500.0


#: Pathological sojourns: links are almost always BAD.
MOSTLY_BAD = FaultSpec(kind="links", mean_good=0.01, mean_bad=100.0)


class TestGilbertElliottLinks:
    def test_bad_state_gates_transmission(self):
        sim, net = build_grid()
        fault = GilbertElliottLinkFault(net, random.Random(7), MOSTLY_BAD)
        fault.start()
        assert fault.active()
        sim.run_until(5.0)
        now = sim.now
        adjacent = [
            (a, b)
            for a in all_ids(net)
            for b in all_ids(net)
            if a < b
            and net.node(a).distance_to(net.node(b), now)
            <= net.node(a).transmission_range
        ]
        down = [
            (a, b) for a, b in adjacent if not net.medium.can_transmit(a, b, now)
        ]
        assert down, "with mean_bad >> mean_good some links must be down"
        a, b = down[0]
        assert net.medium.link_quality(a, b, now) == 0.0
        # Symmetric: the chain is per undirected link.
        assert not net.medium.can_transmit(b, a, now)

    def test_stop_uninstalls(self):
        sim, net = build_grid()
        fault = GilbertElliottLinkFault(net, random.Random(7), MOSTLY_BAD)
        fault.start()
        sim.run_until(5.0)
        fault.stop()
        assert not fault.active()
        assert net.medium.link_fault is None
        now = sim.now
        assert net.medium.can_transmit(0, 1, now)

    def test_bad_link_margin_is_scaled_by_bad_quality(self):
        sim, net = build_grid()
        healthy = net.medium.link_quality(0, 1, 0.0)
        fault = GilbertElliottLinkFault(net, random.Random(7), MOSTLY_BAD)
        fault.start()
        sim.run_until(5.0)
        now = sim.now
        assert 0.0 < healthy < 1.0
        assert not fault.link_up(0, 1, now)
        assert net.medium.link_quality(0, 1, now) == healthy * BAD_QUALITY


class TestCoordinator:
    def test_merged_events_and_queries(self):
        sim, net = build_grid()
        chaos = ChaosCoordinator(net)
        rotation = chaos.add(CrashRotationFault(
            net, random.Random(1),
            FaultSpec(kind="rotation", count=2, period=10.0),
            lambda: [0, 1, 2, 3],
        ))
        attrition = chaos.add(PermanentCrashFault(
            net, random.Random(2),
            FaultSpec(kind="permanent", count=1, period=7.0, rounds=1, start=3.0),
            lambda: [8, 9, 10, 11],
        ))
        chaos.start()
        sim.run_until(5.0)
        assert chaos.any_active()
        events = chaos.events()
        assert [e.time for e in events] == sorted(e.time for e in events)
        assert [(e.time, e.model) for e in events] == [
            (0.0, "crash-rotation"), (3.0, "permanent-crash"),
        ]
        broken = set(rotation._fail_times) | set(attrition._fail_times)
        for n in broken:
            assert chaos.fail_time_of(n) is not None
        assert chaos.fail_time_of(15) is None
        chaos.stop()
        assert not set(rotation._fail_times)
        # Permanent damage is recovered at teardown stop() too.
        assert all(net.node(n).usable for n in [8, 9, 10, 11])

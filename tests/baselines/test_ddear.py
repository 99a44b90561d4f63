"""Tests for the D-DEAR baseline."""

import random

import pytest

from repro.baselines.ddear import DDearSystem
from repro.net.energy import Phase
from repro.net.network import WirelessNetwork
from repro.net.packet import Packet, PacketKind
from repro.sim.core import Simulator
from repro.wsan.deployment import plan_deployment
from repro.wsan.system import build_nodes


def build(seed=42, speed=0.0, sensors=200):
    rng = random.Random(seed)
    sim = Simulator()
    network = WirelessNetwork(sim, rng)
    plan = plan_deployment(sensors, 500.0, rng)
    build_nodes(network, plan, rng, sensor_max_speed=speed)
    system = DDearSystem(network, plan, rng)
    return sim, network, system


def packet(sim, src):
    return Packet(PacketKind.DATA, 1000, src, None, sim.now, deadline=0.6)


class TestConstruction:
    def test_heads_form_2hop_dominating_set(self):
        sim, network, system = build()
        system.build()
        head_set = set(system.heads)
        for sensor in system.sensor_ids:
            if sensor in head_set:
                continue
            covered = sensor in system._head_of
            assert covered, f"sensor {sensor} has no head"

    def test_heads_are_sensors(self):
        sim, network, system = build()
        system.build()
        assert all(network.node(h).is_sensor for h in system.heads)

    def test_member_paths_at_most_two_hops(self):
        sim, network, system = build()
        system.build()
        for member, path in system._member_path.items():
            assert 2 <= len(path) <= 3
            assert path[0] == member
            assert path[-1] in set(system.heads)

    def test_heads_have_actuator_paths(self):
        sim, network, system = build()
        system.build()
        with_path = [h for h in system.heads if h in system._head_path]
        assert len(with_path) >= 0.9 * len(system.heads)
        for head in with_path:
            path = system._head_path[head]
            assert path[0] == head
            assert network.node(path[-1]).is_actuator

    def test_construction_energy_between_datree_and_refer(self):
        from repro.baselines.datree import DaTreeSystem
        from repro.core.system import ReferSystem

        energies = {}
        for cls in (DaTreeSystem, DDearSystem, ReferSystem):
            rng = random.Random(42)
            sim = Simulator()
            network = WirelessNetwork(sim, rng)
            plan = plan_deployment(200, 500.0, rng)
            build_nodes(network, plan, rng, sensor_max_speed=0.0)
            system = cls(network, plan, rng)
            network.set_phase(Phase.CONSTRUCTION)
            system.build()
            energies[cls.__name__] = network.energy.total(Phase.CONSTRUCTION)
        assert (
            energies["DaTreeSystem"]
            < energies["DDearSystem"]
            < energies["ReferSystem"]
        )


class TestDataPlane:
    def test_delivery(self):
        sim, network, system = build()
        system.build()
        network.set_phase(Phase.COMMUNICATION)
        system.start()
        done = []
        for src in random.Random(1).sample(system.sensor_ids, 30):
            system.send_event(src, packet(sim, src), done.append)
        sim.run_until(5.0)
        assert len(done) >= 29
        system.stop()

    def test_head_source_uses_head_leg_only(self):
        sim, network, system = build()
        system.build()
        network.set_phase(Phase.COMMUNICATION)
        head = next(h for h in system.heads if h in system._head_path)
        done = []
        system.send_event(head, packet(sim, head), done.append)
        sim.run_until(2.0)
        assert len(done) == 1

    def test_head_path_failure_repairs_and_retransmits(self):
        sim, network, system = build()
        system.build()
        network.set_phase(Phase.COMMUNICATION)
        head = next(
            h for h in system.heads
            if h in system._head_path and len(system._head_path[h]) > 2
        )
        relay = system._head_path[head][1]
        network.fail_node(relay)
        done, dropped = [], []
        system.send_event(
            head, packet(sim, head), done.append,
            lambda p, reason: dropped.append(p),
        )
        sim.run_until(5.0)
        assert system.repairs >= 1
        assert done or dropped


class TestMaintenance:
    def test_members_reattach_under_mobility(self):
        sim, network, system = build(speed=4.0)
        system.build()
        network.set_phase(Phase.COMMUNICATION)
        system.start()
        sim.run_until(40.0)
        assert system.reattachments > 0
        system.stop()

    def test_static_network_no_repairs(self):
        sim, network, system = build(speed=0.0)
        system.build()
        network.set_phase(Phase.COMMUNICATION)
        system.start()
        sim.run_until(20.0)
        assert system.repairs == 0
        system.stop()

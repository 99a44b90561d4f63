"""Tests for the DaTree baseline."""

import random

import pytest

from repro.baselines.datree import DaTreeSystem
from repro.net.energy import Phase
from repro.net.network import WirelessNetwork
from repro.net.packet import Packet, PacketKind
from repro.sim.core import Simulator
from repro.wsan.deployment import plan_deployment
from repro.wsan.system import build_nodes
from tests.net.test_network import counted


def build(seed=42, speed=0.0, sensors=200):
    rng = random.Random(seed)
    sim = Simulator()
    network = WirelessNetwork(sim, rng)
    plan = plan_deployment(sensors, 500.0, rng)
    build_nodes(network, plan, rng, sensor_max_speed=speed)
    system = DaTreeSystem(network, plan, rng)
    return sim, network, system


def packet(sim, src):
    return Packet(PacketKind.DATA, 1000, src, None, sim.now, deadline=0.6)


class TestConstruction:
    def test_every_sensor_gets_a_parent(self):
        sim, network, system = build()
        system.build()
        for sensor in system.sensor_ids:
            assert system._parent.get(sensor) is not None

    def test_parent_chain_reaches_actuator(self):
        sim, network, system = build()
        system.build()
        for sensor in system.sensor_ids[:50]:
            current, hops = sensor, 0
            while not network.node(current).is_actuator:
                current = system._parent[current]
                hops += 1
                assert hops < 50
            assert network.node(current).is_actuator

    def test_construction_is_cheapest_of_reference_systems(self):
        sim, network, system = build()
        network.set_phase(Phase.CONSTRUCTION)
        system.build()
        # One joint flood: exactly one tx per reached node.
        assert counted(network.registry, "energy_tx_packets") == 205


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
        assert len(done) == 30

    def test_actuator_source_delivers_immediately(self):
        sim, network, system = build()
        system.build()
        done = []
        system.send_event(0, packet(sim, 0), done.append)
        assert len(done) == 1

    def test_broken_parent_triggers_repair_and_retransmit(self):
        sim, network, system = build()
        system.build()
        network.set_phase(Phase.COMMUNICATION)
        src = next(
            s for s in system.sensor_ids
            if not network.node(system._parent[s]).is_actuator
        )
        network.fail_node(system._parent[src])
        done, dropped = [], []
        system.send_event(
            src, packet(sim, src), done.append,
            lambda p, reason: dropped.append(p),
        )
        sim.run_until(5.0)
        assert system.repairs >= 1
        assert system.retransmissions >= 1
        assert len(done) == 1
        # The retransmitted copy arrives only after the source timeout.
        assert done[0].latency(5.0) >= 0.0

    def test_drop_after_retransmission_budget(self):
        sim, network, system = build(seed=3)
        system.build()
        network.set_phase(Phase.COMMUNICATION)
        src = system.sensor_ids[0]
        # Kill every neighbour so no repair can ever succeed.
        for nb in network.neighbors(src):
            network.fail_node(nb)
        done, dropped = [], []
        system.send_event(
            src, packet(sim, src), done.append,
            lambda p, reason: dropped.append(reason),
        )
        sim.run_until(10.0)
        assert dropped == ["retries-exhausted"] and not done


class TestMaintenance:
    def test_hello_energy_charged(self):
        sim, network, system = build()
        system.build()
        network.set_phase(Phase.COMMUNICATION)
        system.start()
        sim.run_until(11.0)
        assert network.energy.total(Phase.COMMUNICATION) > 0
        system.stop()

    def test_mobility_triggers_repairs(self):
        sim, network, system = build(speed=4.0)
        system.build()
        network.set_phase(Phase.COMMUNICATION)
        system.start()
        sim.run_until(30.0)
        assert system.repairs > 0
        system.stop()

    def test_static_network_never_repairs(self):
        sim, network, system = build(speed=0.0)
        system.build()
        network.set_phase(Phase.COMMUNICATION)
        system.start()
        sim.run_until(20.0)
        assert system.repairs == 0
        system.stop()

"""Integration tests for the full ReferSystem."""

import random

import pytest

from repro.core.ids import ReferId
from repro.core.system import ReferSystem
from repro.errors import ConfigError
from repro.net.energy import Phase
from repro.net.network import WirelessNetwork
from repro.net.packet import Packet, PacketKind
from repro.sim.core import Simulator
from repro.wsan.deployment import plan_deployment
from repro.wsan.duty_cycle import SensorState
from repro.wsan.system import build_nodes


def build_system(seed=42, speed=1.0, sensors=200):
    rng = random.Random(seed)
    sim = Simulator()
    network = WirelessNetwork(sim, rng)
    plan = plan_deployment(sensors, 500.0, rng)
    build_nodes(network, plan, rng, sensor_max_speed=speed)
    system = ReferSystem(network, plan, rng)
    return sim, network, system


def packet(sim, src):
    return Packet(PacketKind.DATA, 1000, src, None, sim.now, deadline=0.6)


class TestLifecycle:
    def test_build_creates_complete_cells(self):
        sim, network, system = build_system()
        system.build()
        assert len(system.cells) == 4
        assert all(cell.is_complete for cell in system.cells)

    def test_duty_cycle_tracks_members(self):
        sim, network, system = build_system()
        system.build()
        for member in system.member_sensor_ids:
            assert system.duty.state(member) is SensorState.ACTIVE

    def test_member_count(self):
        sim, network, system = build_system()
        system.build()
        # 4 cells x 9 sensor-held vertices of K(2,3).
        assert len(system.member_sensor_ids) == 36

    def test_send_before_build_rejected(self):
        sim, network, system = build_system()
        with pytest.raises(ConfigError):
            system.send_event(10, packet(sim, 10))
        with pytest.raises(ConfigError):
            system.start()

    def test_id_of(self):
        sim, network, system = build_system()
        system.build()
        member = next(iter(system.member_sensor_ids))
        rid = system.id_of(member)
        assert rid is not None
        assert system.cells[rid.cid - 1].node_of(rid.kid) == member
        outsider = next(
            s for s in system.sensor_ids
            if s not in system.member_sensor_ids
        )
        assert system.id_of(outsider) is None


class TestEndToEnd:
    def test_events_reach_actuators(self):
        sim, network, system = build_system()
        network.set_phase(Phase.CONSTRUCTION)
        system.build()
        network.set_phase(Phase.COMMUNICATION)
        system.start()
        done, dropped = [], []
        rng = random.Random(7)
        for t in range(100):
            src = rng.choice(system.sensor_ids)
            sim.schedule(
                t * 0.3,
                lambda s=src: system.send_event(
                    s, packet(sim, s), done.append,
                    lambda p, reason: dropped.append(p)
                ),
            )
        sim.run_until(40.0)
        system.stop()
        assert len(done) >= 98
        assert all(network.node(p.destination).is_actuator for p in done)

    def test_latency_is_realtime(self):
        sim, network, system = build_system()
        system.build()
        network.set_phase(Phase.COMMUNICATION)
        system.start()
        latencies = []
        rng = random.Random(3)
        for t in range(50):
            src = rng.choice(system.sensor_ids)
            sim.schedule(
                t * 0.5,
                lambda s=src: system.send_event(
                    s, packet(sim, s),
                    lambda p: latencies.append(p.latency(sim.now)),
                ),
            )
        sim.run_until(40.0)
        assert latencies
        assert sum(latencies) / len(latencies) < 0.1

    def test_survives_faults(self):
        sim, network, system = build_system()
        system.build()
        network.set_phase(Phase.COMMUNICATION)
        system.start()
        rng = random.Random(5)
        victims = rng.sample(sorted(system.member_sensor_ids), 4)
        for v in victims:
            network.fail_node(v)
        done, dropped = [], []
        usable_sources = [
            s for s in system.sensor_ids if network.node(s).usable
        ]
        for t in range(50):
            src = rng.choice(usable_sources)
            sim.schedule(
                t * 0.4,
                lambda s=src: system.send_event(
                    s, packet(sim, s), done.append,
                    lambda p, reason: dropped.append(p)
                ),
            )
        sim.run_until(40.0)
        assert len(done) >= 48

    def test_dht_addressing_across_cells(self):
        sim, network, system = build_system()
        system.build()
        network.set_phase(Phase.COMMUNICATION)
        src_cell, dst_cell = system.cells[0], system.cells[2]
        source = src_cell.sensor_member_ids[0]
        dest = ReferId(
            dst_cell.cid, dst_cell.kid_of(dst_cell.sensor_member_ids[0])
        )
        done = []
        system.send_to(source, dest, packet(sim, source), done.append)
        sim.run_until(5.0)
        assert len(done) == 1

    def test_construction_energy_separated(self):
        sim, network, system = build_system()
        network.set_phase(Phase.CONSTRUCTION)
        system.build()
        construction = network.energy.total(Phase.CONSTRUCTION)
        assert construction > 0
        network.set_phase(Phase.COMMUNICATION)
        system.start()
        sim.run_until(10.0)
        assert network.energy.total(Phase.CONSTRUCTION) == construction

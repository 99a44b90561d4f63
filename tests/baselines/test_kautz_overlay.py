"""Tests for the application-layer Kautz-overlay baseline."""

import random

import pytest

from repro.baselines.kautz_overlay import (
    KautzOverlaySystem,
    overlay_dimensions,
)
from repro.errors import ConfigError
from repro.kautz.graph import kautz_node_count
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
    system = KautzOverlaySystem(network, plan, rng)
    return sim, network, system


def packet(sim, src):
    return Packet(PacketKind.DATA, 1000, src, None, sim.now, deadline=0.6)


class TestOverlayDimensions:
    def test_largest_fitting_graph(self):
        assert overlay_dimensions(205, degree=3) == 4    # K(3,4)=108
        assert overlay_dimensions(405, degree=3) == 5    # K(3,5)=324
        assert overlay_dimensions(100, degree=2) == 6    # K(2,6)=96

    def test_fits_population(self):
        for population in (50, 100, 200, 400):
            for d in (2, 3):
                k = overlay_dimensions(population, d)
                assert kautz_node_count(d, k) <= population

    def test_too_small_population(self):
        with pytest.raises(ConfigError):
            overlay_dimensions(5, degree=3)


class TestConstruction:
    def test_actuators_are_members(self):
        sim, network, system = build()
        system.build()
        for actuator in system.actuator_ids:
            assert actuator in system._node_to_kid

    def test_member_count_matches_graph(self):
        sim, network, system = build()
        system.build()
        assert len(system._node_to_kid) == system.graph.node_count

    def test_most_overlay_edges_have_paths(self):
        sim, network, system = build()
        system.build()
        expected = system.graph.node_count * system.graph.degree
        assert len(system._paths) >= 0.9 * expected

    def test_paths_are_physical_walks(self):
        sim, network, system = build()
        system.build()
        for (src, dst), path in list(system._paths.items())[:50]:
            assert path[0] == src and path[-1] == dst
            for a, b in zip(path, path[1:]):
                assert network.medium.can_transmit(a, b, sim.now)

    def test_construction_is_most_expensive(self):
        """Kautz-overlay construction dwarfs every other system's."""
        from repro.baselines.datree import DaTreeSystem
        from repro.core.system import ReferSystem

        energies = {}
        for cls in (DaTreeSystem, ReferSystem, KautzOverlaySystem):
            rng = random.Random(42)
            sim = Simulator()
            network = WirelessNetwork(sim, rng)
            plan = plan_deployment(200, 500.0, rng)
            build_nodes(network, plan, rng, sensor_max_speed=0.0)
            system = cls(network, plan, rng)
            network.set_phase(Phase.CONSTRUCTION)
            system.build()
            energies[cls.__name__] = network.energy.total(Phase.CONSTRUCTION)
        assert energies["KautzOverlaySystem"] > 5 * energies["ReferSystem"]
        assert energies["KautzOverlaySystem"] > 5 * energies["DaTreeSystem"]


class TestDataPlane:
    def test_member_source_delivers(self):
        sim, network, system = build()
        system.build()
        network.set_phase(Phase.COMMUNICATION)
        system.start()
        member = next(
            n for n in system._node_to_kid if network.node(n).is_sensor
        )
        done = []
        system.send_event(member, packet(sim, member), done.append)
        sim.run_until(5.0)
        assert len(done) == 1
        assert network.node(done[0].destination).is_actuator
        system.stop()

    def test_non_member_source_enters_via_member(self):
        sim, network, system = build()
        system.build()
        network.set_phase(Phase.COMMUNICATION)
        outsider = next(
            s for s in system.sensor_ids if s not in system._node_to_kid
        )
        done, dropped = [], []
        system.send_event(
            outsider, packet(sim, outsider), done.append,
            lambda p, reason: dropped.append(p)
        )
        sim.run_until(5.0)
        assert done or dropped   # terminates either way

    def test_delivery_latency_higher_than_refer(self):
        """Topology inconsistency costs delay (Figs 6, 8)."""
        from repro.core.system import ReferSystem

        delays = {}
        for cls in (ReferSystem, KautzOverlaySystem):
            rng = random.Random(42)
            sim = Simulator()
            network = WirelessNetwork(sim, rng)
            plan = plan_deployment(200, 500.0, rng)
            build_nodes(network, plan, rng, sensor_max_speed=0.0)
            system = cls(network, plan, rng)
            system.build()
            network.set_phase(Phase.COMMUNICATION)
            system.start()
            latencies = []
            src_rng = random.Random(7)
            for t in range(30):
                src = src_rng.choice(system.sensor_ids)
                sim.schedule(
                    t * 0.5,
                    lambda s=src: system.send_event(
                        s,
                        packet(sim, s),
                        lambda p: latencies.append(p.latency(sim.now)),
                    ),
                )
            sim.run_until(30.0)
            system.stop()
            delays[cls.__name__] = sum(latencies) / len(latencies)
        assert delays["KautzOverlaySystem"] > 2 * delays["ReferSystem"]

    def test_segment_failure_recovers_via_flood(self):
        sim, network, system = build()
        system.build()
        network.set_phase(Phase.COMMUNICATION)
        # Break one cached path by failing an interior relay.
        key, path = next(
            (k, p) for k, p in system._paths.items() if len(p) > 2
        )
        interior = path[1]
        if network.node(interior).is_actuator:
            pytest.skip("interior is an actuator")
        network.fail_node(interior)
        member = key[0]
        if not network.node(member).usable or not network.node(member).is_sensor:
            pytest.skip("member unusable")
        done, dropped = [], []
        system.send_event(
            member, packet(sim, member), done.append,
            lambda p, reason: dropped.append(p),
        )
        sim.run_until(10.0)
        assert done or dropped

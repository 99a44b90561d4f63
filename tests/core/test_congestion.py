"""Tests for congestion-aware successor choice (Section III-C2)."""

import random

import pytest

from repro.core.embedding import EmbeddingProtocol
from repro.core import routing
from repro.core.routing import ReferRouter
from repro.net.energy import Phase
from repro.net.network import WirelessNetwork
from repro.net.packet import Packet, PacketKind
from repro.sim.core import Simulator
from repro.wsan.deployment import plan_deployment
from repro.wsan.system import build_nodes


def build_world(seed=42):
    rng = random.Random(seed)
    sim = Simulator()
    network = WirelessNetwork(sim, rng)
    plan = plan_deployment(200, 500.0, rng)
    build_nodes(network, plan, rng, sensor_max_speed=0.0)
    cells = EmbeddingProtocol(network, plan, rng).run()
    network.set_phase(Phase.COMMUNICATION)
    router = ReferRouter(network, plan, cells)
    return sim, network, cells, router


def packet(sim, src):
    return Packet(PacketKind.DATA, 1000, src, None, sim.now, deadline=0.6)


class TestCongestionDetour:
    def _preferred_first_hop(self, sim, router, cell, source):
        """The first-hop member REFER picks for source with no congestion."""
        done = []
        router.send_to_actuator(source, packet(sim, source), done.append)
        sim.run_until(sim.now + 2.0)
        assert done
        return done[0].hops[1] if len(done[0].hops) > 1 else done[0].hops[0]

    def test_congested_successor_skipped(self):
        sim, network, cells, router = build_world()
        cell = cells[0]
        source = cell.sensor_member_ids[0]
        first = self._preferred_first_hop(sim, router, cell, source)
        if first == source:
            pytest.skip("source delivers directly")
        # Saturate the preferred relay's radio far beyond the threshold.
        network.node(first).radio_busy_until = sim.now + 5.0
        done = []
        router.send_to_actuator(source, packet(sim, source), done.append)
        sim.run_until(sim.now + 2.0)
        assert done
        assert first not in done[0].hops[1:], (
            "congested relay should have been detoured"
        )
        assert router.stats.congestion_detours > 0

    def test_congested_relay_still_used_as_last_resort(self):
        sim, network, cells, router = build_world()
        cell = cells[0]
        source = cell.sensor_member_ids[0]
        # Congest EVERY member: no clear path exists, so routing must
        # fall back to congested relays rather than dropping.
        for member in cell.member_ids:
            if member != source:
                network.node(member).radio_busy_until = sim.now + 0.2
        done, dropped = [], []
        router.send_to_actuator(
            source, packet(sim, source), done.append,
            lambda p, reason: dropped.append(p)
        )
        sim.run_until(sim.now + 3.0)
        assert done and not dropped

    def test_threshold_configurable(self, monkeypatch):
        # Below ``CONGESTION_THRESHOLD`` a backlog is not congestion:
        # the relay saturated in ``test_congested_successor_skipped``
        # is no longer detoured around.
        monkeypatch.setattr(routing, "CONGESTION_THRESHOLD", 10.0)
        sim, network, cells, router = build_world()
        source = cells[0].sensor_member_ids[0]
        first = self._preferred_first_hop(sim, router, cells[0], source)
        if first == source:
            pytest.skip("source delivers directly")
        network.node(first).radio_busy_until = sim.now + 5.0
        router.send_to_actuator(source, packet(sim, source), lambda p: None)
        sim.run_until(sim.now + 2.0)
        assert router.stats.congestion_detours == 0

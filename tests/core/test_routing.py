"""Tests for the REFER router over embedded cells."""

import random

import pytest

from repro.core.embedding import EmbeddingProtocol
from repro.core.ids import ReferId
from repro.core.routing import ReferRouter
from repro.errors import RoutingError
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.kautz.strings import KautzString
from repro.net.energy import Phase
from repro.net.network import WirelessNetwork
from repro.net.packet import Packet, PacketKind
from repro.sim.core import Simulator
from repro.wsan.deployment import plan_deployment
from repro.wsan.system import build_nodes


def build_world(seed=42, speed=0.0, sensors=200):
    rng = random.Random(seed)
    sim = Simulator()
    network = WirelessNetwork(sim, rng)
    plan = plan_deployment(sensors, 500.0, rng)
    build_nodes(network, plan, rng, sensor_max_speed=speed)
    cells = EmbeddingProtocol(network, plan, rng).run()
    network.set_phase(Phase.COMMUNICATION)
    router = ReferRouter(network, plan, cells)
    return sim, network, plan, cells, router, rng


def packet(sim, src):
    return Packet(PacketKind.DATA, 1000, src, None, sim.now, deadline=0.6)


class TestSendToActuator:
    def test_member_source_delivers(self):
        sim, network, plan, cells, router, rng = build_world()
        source = cells[0].sensor_member_ids[0]
        done = []
        router.send_to_actuator(source, packet(sim, source), done.append)
        sim.run_until(2.0)
        assert len(done) == 1
        assert network.node(done[0].destination).is_actuator

    def test_non_member_source_delivers(self):
        sim, network, plan, cells, router, rng = build_world()
        members = {m for c in cells for m in c.member_ids}
        source = next(s for s in range(5, 205) if s not in members)
        done = []
        router.send_to_actuator(source, packet(sim, source), done.append)
        sim.run_until(2.0)
        assert len(done) == 1

    def test_many_sources_deliver(self):
        sim, network, plan, cells, router, rng = build_world()
        done, dropped = [], []
        for source in rng.sample(range(5, 205), 50):
            router.send_to_actuator(
                source, packet(sim, source), done.append, dropped.append
            )
        sim.run_until(5.0)
        assert len(done) >= 48

    def test_faulty_relay_is_detoured(self):
        sim, network, plan, cells, router, rng = build_world()
        cell = cells[0]
        source = cell.sensor_member_ids[0]
        # Fail one non-actuator member that is not the source.
        victim = next(
            m for m in cell.sensor_member_ids if m != source
        )
        network.fail_node(victim)
        done, dropped = [], []
        for _ in range(5):
            router.send_to_actuator(
                source, packet(sim, source), done.append, dropped.append
            )
        sim.run_until(5.0)
        assert len(done) == 5
        for pkt in done:
            assert victim not in pkt.hops

    def test_detours_counted(self):
        sim, network, plan, cells, router, rng = build_world()
        cell = cells[0]
        # Fail several members to force non-best successors.
        for victim in cell.sensor_member_ids[:4]:
            network.fail_node(victim)
        done, dropped = [], []
        for source in cell.sensor_member_ids[4:]:
            router.send_to_actuator(
                source, packet(sim, source), done.append, dropped.append
            )
        sim.run_until(5.0)
        assert done   # routing survives
        # stats object tracks activity
        assert router.stats.intra_messages > 0


class TestSendToReferId:
    def test_intra_cell_destination(self):
        sim, network, plan, cells, router, rng = build_world()
        cell = cells[0]
        source = cell.sensor_member_ids[0]
        dest_kid = cell.kid_of(cell.sensor_member_ids[-1])
        done = []
        router.send_to(
            source, ReferId(cell.cid, dest_kid), packet(sim, source),
            done.append,
        )
        sim.run_until(2.0)
        assert len(done) == 1

    def test_inter_cell_destination(self):
        sim, network, plan, cells, router, rng = build_world()
        src_cell, dst_cell = cells[0], cells[2]
        source = src_cell.sensor_member_ids[0]
        dest_kid = dst_cell.kid_of(dst_cell.sensor_member_ids[0])
        done = []
        router.send_to(
            source, ReferId(dst_cell.cid, dest_kid), packet(sim, source),
            done.append,
        )
        sim.run_until(3.0)
        assert len(done) == 1
        assert router.stats.inter_messages == 1

    def test_unknown_cell_rejected(self):
        sim, network, plan, cells, router, rng = build_world()
        source = cells[0].sensor_member_ids[0]
        with pytest.raises(RoutingError):
            router.send_to(
                source,
                ReferId(99, cells[0].kid_of(source)),
                packet(sim, source),
            )

    def test_unassigned_kid_rejected(self):
        sim, network, plan, cells, router, rng = build_world()
        source = cells[0].sensor_member_ids[0]
        fake = ReferId(cells[1].cid, cells[1].assigned_kids[0])
        # Temporarily unassign by picking a kid from a fresh graph not
        # in the embedding: use an unassigned kid if one exists.
        unassigned = cells[1].unassigned_kids()
        if not unassigned:
            pytest.skip("cell fully assigned (expected for K(2,3))")
        with pytest.raises(RoutingError):
            router.send_to(
                source, ReferId(cells[1].cid, unassigned[0]),
                packet(sim, source),
            )


class TestCellQueries:
    def test_cell_holding(self):
        sim, network, plan, cells, router, rng = build_world()
        member = cells[1].sensor_member_ids[0]
        assert router.cell_holding(member).cid == cells[1].cid
        members = {m for c in cells for m in c.member_ids}
        outsider = next(s for s in range(5, 205) if s not in members)
        assert router.cell_holding(outsider) is None

    def test_cell_at_position(self):
        sim, network, plan, cells, router, rng = build_world()
        for cell_spec in plan.cells:
            assert router.cell_at(cell_spec.centroid).cid == cell_spec.cid


class TestCellHoldingCache:
    def test_cache_agrees_with_linear_scan(self):
        sim, network, plan, cells, router, rng = build_world()
        for node_id in range(0, 205):
            expected = None
            for cell in cells:
                if cell.holds(node_id):
                    expected = cell
                    break
            assert router.cell_holding(node_id) is expected
            # Second lookup serves from the cache and must agree.
            assert router.cell_holding(node_id) is expected

    def test_reassign_invalidates_both_ids(self):
        sim, network, plan, cells, router, rng = build_world()
        cell = cells[0]
        old = cell.sensor_member_ids[0]
        kid = cell.kid_of(old)
        members = {m for c in cells for m in c.member_ids}
        newcomer = next(s for s in range(5, 205) if s not in members)
        # Warm the cache for both ids (including the cached None).
        assert router.cell_holding(old) is cell
        assert router.cell_holding(newcomer) is None
        cell.reassign(kid, newcomer)
        assert router.cell_holding(old) is None
        assert router.cell_holding(newcomer) is cell

    def test_actuator_tie_break_preserved(self):
        sim, network, plan, cells, router, rng = build_world()
        # Actuators belong to several cells; the cache must keep the
        # historical first-cell-in-cid-order answer.
        for actuator in range(5):
            holding = router.cell_holding(actuator)
            first = next(c for c in cells if c.holds(actuator))
            assert holding is first


class TestFaultAttribution:
    def test_detours_attributed_while_faults_active(self):
        sim, network, plan, cells, router, rng = build_world()
        router.set_fault_activity(lambda: True)
        cell = cells[0]
        source = cell.sensor_member_ids[0]
        # Fail members one at a time until one sits on the source's
        # best path — that send must detour, and with the fault-activity
        # hook reporting "active" the detour is fault-attributed.
        for victim in cell.sensor_member_ids:
            if victim == source:
                continue
            network.fail_node(victim)
            router.send_to_actuator(source, packet(sim, source))
            sim.run_until(sim.now + 5.0)
            network.recover_node(victim)
            if router.stats.detours:
                break
        assert router.stats.detours >= 1
        assert router.stats.fault_detours == router.stats.detours

    def test_no_attribution_without_hook(self):
        sim, network, plan, cells, router, rng = build_world()
        cell = cells[0]
        source = cell.sensor_member_ids[0]
        victim = next(m for m in cell.sensor_member_ids if m != source)
        network.fail_node(victim)
        for _ in range(5):
            router.send_to_actuator(source, packet(sim, source))
        sim.run_until(5.0)
        assert router.stats.fault_detours == 0
        assert router.stats.fault_drops == 0


class TestReplacedEntryCandidate:
    """Entry candidates are ranked once; by the time a later one is
    tried (an earlier hop failed) maintenance may have replaced it."""

    def test_a_replaced_candidate_is_stepped_over(self):
        sim, network, plan, cells, router, rng = build_world()
        cell = cells[0]
        members = {m for c in cells for m in c.member_ids}
        outsiders = [s for s in range(5, 205) if s not in members]
        source, candidates = next(
            (s, ranked)
            for s in outsiders
            for ranked in [router._ranked_members(s, cell, sim.now)]
            if len(ranked) >= 2 and network.node(ranked[0]).is_sensor
        )
        stale = candidates[0]
        cell.reassign(
            cell.kid_of(stale), next(s for s in outsiders if s != source)
        )
        done, dropped = [], []
        router._enter_via_members(
            source, candidates, cell, cell.actuator_kids[0],
            packet(sim, source), done.append, dropped.append,
        )
        sim.run_until(2.0)
        assert len(done) == 1 and not dropped
        assert stale not in done[0].hops

    def test_no_candidate_left_is_an_entry_failure(self):
        sim, network, plan, cells, router, rng = build_world()
        cell = cells[0]
        dropped = []
        router._enter_via_members(
            150, [-1], cell, cell.actuator_kids[0],
            packet(sim, 150), None, dropped.append,
        )
        assert [p.meta["drop_reason"] for p in dropped] == ["entry-failed"]

    def test_refer_build_scenario_seed_1005_completes(self):
        """The run that found it: before the fix it died with a bare
        ``EmbeddingError: node 68 not a member of cell 4``."""
        result = run_scenario(
            "REFER",
            ScenarioConfig(
                seed=1005, sensor_count=800, sim_time=20.0, warmup=2.0,
                rate_pps=12.0, packet_bytes=1000,
            ),
        )
        assert result.generated == 1200
        assert result.delivered_total + result.dropped == result.generated

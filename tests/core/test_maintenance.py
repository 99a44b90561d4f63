"""Tests for topology maintenance (probe + node replacement)."""

import random

import pytest

from repro.core.embedding import EmbeddingProtocol
from repro.core.maintenance import MAINTENANCE_PERIOD, TopologyMaintenance
from repro.net.energy import Phase
from repro.net.network import WirelessNetwork
from repro.sim.core import Simulator
from repro.wsan.deployment import plan_deployment
from repro.wsan.duty_cycle import DutyCycleManager, SensorState
from repro.wsan.system import build_nodes


def build_world(seed=42, speed=0.0):
    rng = random.Random(seed)
    sim = Simulator()
    network = WirelessNetwork(sim, rng)
    plan = plan_deployment(200, 500.0, rng)
    build_nodes(network, plan, rng, sensor_max_speed=speed)
    cells = EmbeddingProtocol(network, plan, rng).run()
    network.set_phase(Phase.COMMUNICATION)
    members = {
        nid
        for cell in cells
        for nid in cell.sensor_member_ids
    }
    duty = DutyCycleManager(range(5, 205))
    for m in members:
        duty.activate(m)
    maintenance = TopologyMaintenance(
        network,
        cells,
        duty,
        rng,
        is_member=members.__contains__,
        claim=members.add,
        release=members.discard,
    )
    return sim, network, cells, duty, maintenance, members


class TestProbing:
    def test_probes_charged_every_round(self):
        sim, network, cells, duty, maintenance, members = build_world()
        maintenance.start()
        sim.run_until(3.5 * MAINTENANCE_PERIOD)
        # 36 sensor-held KIDs probed per round, several rounds.
        assert maintenance.stats.probes >= 36 * 3
        assert network.energy.total(Phase.COMMUNICATION) > 0

    def test_static_network_converges(self):
        """Without mobility, replacement activity settles to zero.

        The embedding can leave a few weak links at t=0 (battery ties
        pick by quality but thin pools exist near shared actuators);
        maintenance may fix those once, after which a static network
        must stop churning.
        """
        sim, network, cells, duty, maintenance, members = build_world()
        maintenance.start()
        sim.run_until(10 * MAINTENANCE_PERIOD)
        settled = maintenance.stats.replacements
        sim.run_until(30 * MAINTENANCE_PERIOD)
        assert maintenance.stats.replacements == settled

    def test_stop_halts_probing(self):
        sim, network, cells, duty, maintenance, members = build_world()
        maintenance.start()
        sim.run_until(2 * MAINTENANCE_PERIOD)
        maintenance.stop()
        count = maintenance.stats.probes
        sim.run_until(10 * MAINTENANCE_PERIOD)
        assert maintenance.stats.probes == count


class TestReplacement:
    def test_failed_member_is_replaced(self):
        sim, network, cells, duty, maintenance, members = build_world()
        victim = next(iter(cells[0].sensor_member_ids))
        network.fail_node(victim)
        maintenance.start()
        sim.run_until(2.5 * MAINTENANCE_PERIOD)
        assert maintenance.stats.replacements >= 1
        assert not cells[0].holds(victim)
        assert victim not in members

    def test_replacement_updates_duty_cycle(self):
        sim, network, cells, duty, maintenance, members = build_world()
        victim = next(iter(cells[0].sensor_member_ids))
        kid = cells[0].kid_of(victim)
        network.fail_node(victim)
        maintenance.start()
        sim.run_until(2.5 * MAINTENANCE_PERIOD)
        newcomer = cells[0].node_of(kid)
        assert newcomer != victim
        assert duty.state(newcomer) is SensorState.ACTIVE
        assert duty.state(victim) is not SensorState.ACTIVE

    def test_replacement_is_usable_member(self):
        sim, network, cells, duty, maintenance, members = build_world()
        victim = next(iter(cells[0].sensor_member_ids))
        kid = cells[0].kid_of(victim)
        network.fail_node(victim)
        maintenance.start()
        sim.run_until(2.5 * MAINTENANCE_PERIOD)
        newcomer = cells[0].node_of(kid)
        assert network.node(newcomer).usable
        assert newcomer in members

    def test_actuators_never_replaced(self):
        sim, network, cells, duty, maintenance, members = build_world()
        network.fail_node(0)   # the centre actuator
        maintenance.start()
        sim.run_until(3 * MAINTENANCE_PERIOD)
        for cell in cells:
            assert cell.holds(0)

    def test_mobility_triggers_replacements(self):
        sim, network, cells, duty, maintenance, members = build_world(
            speed=3.0
        )
        maintenance.start()
        sim.run_until(30.0)
        assert maintenance.stats.replacements > 0

    def test_cells_stay_complete_under_churn(self):
        sim, network, cells, duty, maintenance, members = build_world(
            speed=3.0
        )
        maintenance.start()
        sim.run_until(30.0)
        assert all(cell.is_complete for cell in cells)


class TestReplacementLatency:
    def test_latency_recorded_from_detection(self):
        sim, network, cells, duty, maintenance, members = build_world()
        victim = next(iter(cells[0].sensor_member_ids))
        network.fail_node(victim)
        maintenance.start()
        sim.run_until(2.5 * MAINTENANCE_PERIOD)
        assert maintenance.stats.replacements >= 1
        assert maintenance.stats.replacement_latency.count >= 1
        assert maintenance.stats.replacement_latency.mean >= 0.0
        # Without a fault clock, nothing is fault-attributed.
        assert maintenance.stats.fault_replacements == 0

    def test_fault_clock_measures_from_break_instant(self):
        sim, network, cells, duty, maintenance, members = build_world()
        victim = next(iter(cells[0].sensor_member_ids))
        kid = cells[0].kid_of(victim)
        network.fail_node(victim)
        maintenance.set_fault_clock(
            lambda nid: 0.0 if nid == victim else None
        )
        maintenance.start()
        sim.run_until(2.5 * MAINTENANCE_PERIOD)
        assert not cells[0].holds(victim)
        assert cells[0].kid_assigned(kid)
        assert maintenance.stats.fault_replacements >= 1
        # Break happened at t=0; the replacement round runs later, so
        # the recorded latency reflects real detection + repair time.
        assert maintenance.stats.replacement_latency.mean > 0.0

    def test_healed_vertex_resets_latency_window(self):
        sim, network, cells, duty, maintenance, members = build_world()
        victim = next(iter(cells[0].sensor_member_ids))
        network.fail_node(victim)
        maintenance.start()
        # Recover before any candidate replaces it... if replacement
        # already happened this test still holds vacuously.
        network.recover_node(victim)
        sim.run_until(5 * MAINTENANCE_PERIOD)
        settled = maintenance.stats.replacements
        sim.run_until(10 * MAINTENANCE_PERIOD)
        assert maintenance.stats.replacements == settled

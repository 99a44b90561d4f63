"""Cross-cutting integration and invariant tests.

These exercise whole-system properties that no single module owns:
energy conservation between the ledger and per-node batteries,
end-to-end determinism, and packet accounting across a full run.
"""

import random

import pytest

from repro.core.system import ReferSystem
from repro.baselines import DaTreeSystem, DDearSystem, KautzOverlaySystem
from repro.experiments.config import FaultConfig, ScenarioConfig
from repro.experiments.runner import SYSTEMS, run_scenario
from repro.net.energy import Phase
from repro.net.network import WirelessNetwork
from repro.net.packet import Packet, PacketKind
from repro.sim.core import Simulator
from repro.wsan.deployment import plan_deployment
from repro.wsan.system import build_nodes

ALL_SYSTEM_CLASSES = (
    ReferSystem, DaTreeSystem, DDearSystem, KautzOverlaySystem
)


def build_world(system_cls, seed=42, sensors=150, speed=2.0):
    rng = random.Random(seed)
    sim = Simulator()
    network = WirelessNetwork(sim, rng)
    plan = plan_deployment(sensors, 500.0, rng)
    build_nodes(network, plan, rng, sensor_max_speed=speed)
    system = system_cls(network, plan, rng)
    return sim, network, system


class TestEnergyConservation:
    """Every joule in the ledger must equal a joule drained somewhere."""

    @pytest.mark.parametrize("system_cls", ALL_SYSTEM_CLASSES)
    def test_ledger_matches_node_drains(self, system_cls):
        sim, network, system = build_world(system_cls)
        network.set_phase(Phase.CONSTRUCTION)
        system.build()
        network.set_phase(Phase.COMMUNICATION)
        system.start()
        rng = random.Random(1)
        for t in range(40):
            src = rng.choice(system.sensor_ids)
            sim.schedule(
                t * 0.3,
                lambda s=src: system.send_event(
                    s, Packet(PacketKind.DATA, 1000, s, None, sim.now)
                ),
            )
        sim.run_until(20.0)
        system.stop()
        ledger_total = network.energy.grand_total()
        drained_total = sum(
            node.consumed_joules for node in network.medium.node_table.values()
        )
        assert ledger_total == pytest.approx(drained_total, rel=1e-9)

    def test_ledger_phase_totals_sum(self):
        sim, network, system = build_world(ReferSystem)
        network.set_phase(Phase.CONSTRUCTION)
        system.build()
        network.set_phase(Phase.COMMUNICATION)
        system.start()
        sim.run_until(10.0)
        system.stop()
        assert network.energy.grand_total() == pytest.approx(
            network.energy.total(Phase.CONSTRUCTION)
            + network.energy.total(Phase.COMMUNICATION)
        )


class TestPacketAccounting:
    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_every_packet_resolves(self, name):
        """generated == delivered + dropped + still-in-flight(0 after drain)."""
        config = ScenarioConfig(sim_time=12, warmup=2, rate_pps=6)
        result = run_scenario(name, config)
        resolved = result.delivered_total + result.dropped
        # Retransmitting systems may deliver a packet whose earlier
        # copy was also counted dropped; the invariant is that nothing
        # vanishes: resolved covers at least the generated count.
        assert resolved >= result.generated * 0.99

    def test_faulty_runs_account_too(self):
        config = ScenarioConfig(
            sim_time=12, warmup=2, rate_pps=6,
            faults=FaultConfig(count=6),
        )
        result = run_scenario("REFER", config)
        assert result.delivered_total + result.dropped >= result.generated


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_full_run_reproducible(self, name):
        config = ScenarioConfig(sim_time=8, warmup=2, rate_pps=5, seed=17)
        a = run_scenario(name, config)
        b = run_scenario(name, config)
        assert a.comm_energy_j == b.comm_energy_j
        assert a.construction_energy_j == b.construction_energy_j
        assert a.delivered_qos == b.delivered_qos
        assert a.mean_delay_s == b.mean_delay_s


class TestTopologyConsistencyClaim:
    """The paper's core architectural claim: REFER's overlay links are
    physical links, the app-layer overlay's are not."""

    def test_refer_links_physical_overlay_links_not(self):
        sim, network, refer = build_world(ReferSystem, speed=0.0)
        refer.build()
        refer_live = self._live_fraction_refer(network, refer, sim)

        sim2, network2, overlay = build_world(KautzOverlaySystem, speed=0.0)
        overlay.build()
        overlay_live = self._live_fraction_overlay(network2, overlay, sim2)

        assert refer_live > 0.9
        assert overlay_live < 0.5

    @staticmethod
    def _live_fraction_refer(network, system, sim):
        total = live = 0
        for cell in system.cells:
            for kid in cell.assigned_kids:
                for nb in kid.successors():
                    if not cell.kid_assigned(nb):
                        continue
                    total += 1
                    if network.medium.can_transmit(
                        cell.node_of(kid), cell.node_of(nb), sim.now
                    ):
                        live += 1
        return live / total

    @staticmethod
    def _live_fraction_overlay(network, system, sim):
        total = live = 0
        for node_id, kid in system._node_to_kid.items():
            for nb in kid.successors():
                nb_node = system._kid_to_node.get(nb)
                if nb_node is None:
                    continue
                total += 1
                if network.medium.can_transmit(node_id, nb_node, sim.now):
                    live += 1
        return live / total

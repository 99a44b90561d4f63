"""Tests for the network facade: unicast, multi-hop relay, flooding."""

import gc
import random

import pytest

import repro.net.mac as mac_module
from repro.errors import NetworkError
from repro.net.energy import Phase
from repro.net.mobility import StaticMobility
from repro.net.network import WirelessNetwork
from repro.net.node import Node, NodeRole
from repro.net.packet import Packet, PacketKind
from repro.qos.backpressure import HIGH_WATER
from repro.qos.manager import QosManager
from repro.sim.core import Simulator
from repro.util.geometry import Point


def build_line(count=4, spacing=80.0, seed=1):
    """A chain of sensors ``spacing`` apart, 100 m range."""
    sim = Simulator()
    net = WirelessNetwork(sim, random.Random(seed))
    for i in range(count):
        net.add_node(
            Node(
                i,
                NodeRole.SENSOR,
                StaticMobility(Point(i * spacing, 0.0)),
                100.0,
            )
        )
    return sim, net


def counted(registry, name):
    """The sum of registry family ``name`` over its labels (0 unused)."""
    return sum(child.value for _, child in registry.get(name).items())


def data_packet(sim, src=0, dst=None, size=1000):
    return Packet(PacketKind.DATA, size, src, dst, sim.now)


class TestUnicast:
    def test_delivery_and_energy(self):
        sim, net = build_line()
        done = []
        net.send(0, 1, data_packet(sim), on_delivered=done.append)
        sim.run_until(1.0)
        assert len(done) == 1
        assert counted(net.registry, "energy_tx_packets") == 1
        assert counted(net.registry, "energy_rx_packets") == 1
        assert net.energy.grand_total() == 2.75

    def test_out_of_range_fails_after_timeout(self):
        sim, net = build_line()
        failures = []
        net.send(
            0, 2, data_packet(sim),
            on_failed=lambda pkt, cause: failures.append((cause, sim.now)),
        )
        sim.run_until(1.0)
        assert failures
        cause, when = failures[0]
        assert cause == "link-break"
        assert when > 0.0                    # sender burned its timeout
        assert counted(net.registry, "energy_tx_packets") == 1    # tx charged even on failure
        assert counted(net.registry, "energy_rx_packets") == 0

    def test_failed_source_fails_immediately(self):
        sim, net = build_line()
        net.node(0).failed = True
        failures = []
        net.send(0, 1, data_packet(sim), on_failed=lambda p, c: failures.append(c))
        sim.run_until(1.0)
        assert failures == ["src-unusable"]
        assert counted(net.registry, "energy_tx_packets") == 0

    def test_hop_recorded(self):
        sim, net = build_line()
        pkt = data_packet(sim)
        net.send(0, 1, pkt)
        sim.run_until(1.0)
        assert pkt.hops == [0]

    def test_mac_loss_exhausts_retries(self, monkeypatch):
        monkeypatch.setattr(mac_module, "BASE_LOSS", 1.0)  # every frame lost
        sim, net = build_line()
        failures = []
        net.send(0, 1, data_packet(sim), on_failed=lambda p, c: failures.append(c))
        sim.run_until(1.0)
        assert failures == ["mac-loss"]


    def test_a_hop_reports_its_own_cause_after_a_qos_refusal(self):
        """A verdict is the refused hop's alone: the packet's next hop,
        whose receiver dies while the frame is in the air, fails as
        ``dst-unusable``, not under the earlier ``backpressure_shed``."""
        sim, net = build_line()
        qos = QosManager(sim, net)
        qos.install(net)
        pkt = data_packet(sim)        # unmarked DATA travels as bulk
        failures = []
        qos.state.note_depth(1, HIGH_WATER)
        net.send(0, 1, pkt, on_failed=lambda p, c: failures.append(c))
        qos.state.note_depth(1, 0)
        net.send(0, 1, pkt, on_failed=lambda p, c: failures.append(c))
        sim.schedule(0.0, lambda: net.fail_node(1))
        sim.run_until(1.0)
        assert failures == ["backpressure_shed", "dst-unusable"]
        assert {
            cause: child.value
            for (cause,), child in net.registry.get("net_hop_failures").items()
        } == {"backpressure_shed": 1, "dst-unusable": 1}
        assert pkt.meta == {}


class TestSendAlongPath:
    def test_full_relay(self):
        sim, net = build_line()
        done = []
        net.send_along_path([0, 1, 2, 3], data_packet(sim), on_delivered=done.append)
        sim.run_until(1.0)
        assert len(done) == 1
        assert counted(net.registry, "net_delivered_packets") == 1
        # 3 transmissions + 3 receptions
        assert net.energy.grand_total() == 3 * 2.75

    def test_failure_reports_breaking_node(self):
        sim, net = build_line()
        net.node(2).failed = True
        failures = []
        pkt = data_packet(sim)
        net.send_along_path(
            [0, 1, 2, 3], pkt,
            on_failed=lambda p, cause: failures.append(cause),
        )
        sim.run_until(1.0)
        # Node 1 forwarded to the failed node 2: its hop is the last tried.
        assert failures == ["link-break"]
        assert pkt.hops == [0, 1]

    def test_single_node_path_is_local_delivery(self):
        sim, net = build_line()
        done = []
        net.send_along_path([0], data_packet(sim), on_delivered=done.append)
        assert len(done) == 1
        assert net.energy.grand_total() == 0.0

    def test_empty_path_rejected(self):
        sim, net = build_line()
        with pytest.raises(NetworkError):
            net.send_along_path([], data_packet(sim))

    def test_a_finished_relay_leaves_no_cycle(self):
        """Reference counting alone frees a relay: with the collector
        off, a delivered and a failed multi-hop relay leave nothing for
        ``gc.collect()`` to find (a callback that refers to itself
        would leave one cycle per relay)."""
        sim, net = build_line(count=5)
        net.node(3).failed = True
        outcomes = []
        gc.collect()
        gc.disable()
        try:
            net.send_along_path(
                [0, 1, 2], data_packet(sim),
                on_delivered=lambda pkt: outcomes.append("delivered"),
            )
            net.send_along_path(
                [0, 1, 2, 3, 4], data_packet(sim),
                on_failed=lambda pkt, cause: outcomes.append(cause),
            )
            sim.run_until(1.0)
            assert sorted(outcomes) == ["delivered", "link-break"]
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestFlood:
    def test_tree_structure(self):
        sim, net = build_line()
        tree = net.flood(0, ttl=5)
        assert tree[0] == (0, None)
        assert tree[1] == (1, 0)
        assert tree[2] == (2, 1)
        assert tree[3] == (3, 2)

    def test_ttl_bounds_reach(self):
        sim, net = build_line()
        tree = net.flood(0, ttl=2)
        assert 3 not in tree
        assert 2 in tree

    def test_energy_charged_per_forwarder_and_reception(self):
        sim, net = build_line(count=3)
        net.flood(0, ttl=5)
        # All 3 hold the message and forward within ttl: 3 tx.
        # Receptions: every tx heard by each neighbour of the sender:
        # node0 ->1; node1 ->0,2; node2 ->1  == 4 rx.
        assert counted(net.registry, "energy_tx_packets") == 3
        assert counted(net.registry, "energy_rx_packets") == 4

    def test_completion_callback_delayed(self):
        sim, net = build_line()
        times = []
        net.flood(0, ttl=5, on_complete=lambda tree: times.append(sim.now))
        sim.run_until(5.0)
        assert times and times[0] > 0.0

    def test_flood_from_failed_source_is_empty(self):
        sim, net = build_line()
        net.node(0).failed = True
        trees = []
        net.flood(0, ttl=5, on_complete=trees.append)
        sim.run_until(1.0)
        assert trees == [{}]

    def test_flood_occupies_forwarder_radios(self):
        sim, net = build_line()
        net.flood(0, ttl=5)
        assert net.node(1).radio_busy_until > 0.0

    def test_flood_nobody_forwards_completes_now(self):
        # ttl=0: the source holds the message and nobody transmits, so
        # there is no airtime to wait for.
        sim, net = build_line()
        times = []
        tree = net.flood(0, ttl=0, on_complete=lambda t: times.append(sim.now))
        sim.run_until(1.0)
        assert tree == {0: (0, None)}
        assert times == [0.0]
        assert counted(net.registry, "energy_tx_packets") == 0 and counted(net.registry, "energy_rx_packets") == 0
        assert net.node(0).radio_busy_until == 0.0

    def test_negative_ttl_rejected(self):
        sim, net = build_line()
        with pytest.raises(NetworkError):
            net.flood(0, ttl=-1)
        with pytest.raises(NetworkError):
            net.flood_multi([0], ttl=-1)
        assert net.registry.as_dict()["energy_joules"] == {}


class TestFloodMulti:
    def test_each_node_has_one_parent_wave(self):
        sim, net = build_line(count=6)
        tree = net.flood_multi([0, 5], ttl=10)
        assert tree[0] == (0, None)
        assert tree[5] == (0, None)
        assert len(tree) == 6
        # Middle nodes adopt the nearer source's wave.
        assert tree[1][1] == 0
        assert tree[4][1] == 5

    def test_tx_count_is_one_per_reached_node(self):
        sim, net = build_line(count=6)
        net.flood_multi([0, 5], ttl=10)
        assert counted(net.registry, "energy_tx_packets") == 6

    def test_unusable_source_skipped(self):
        sim, net = build_line(count=3)
        net.node(0).failed = True
        tree = net.flood_multi([0, 2], ttl=5)
        assert 0 not in tree
        assert tree[2] == (0, None)


class TestDropAccounting:
    def test_path_failure_is_one_drop(self):
        sim, net = build_line()
        net.node(2).failed = True
        net.send_along_path([0, 1, 2, 3], data_packet(sim))
        sim.run_until(2.0)
        assert counted(net.registry, "net_dropped_packets") == 1
        assert counted(net.registry, "net_hop_failures") >= 1
        assert counted(net.registry, "net_delivered_packets") == 0

    def test_hop_failure_alone_is_not_a_drop(self):
        # A protocol driving send() directly may recover the packet over
        # another path — the facade must not call that an end-to-end drop.
        sim, net = build_line()
        failures = []
        net.send(0, 2, data_packet(sim), on_failed=lambda p, c: failures.append(c))
        sim.run_until(1.0)
        assert failures
        assert counted(net.registry, "net_hop_failures") == 1
        assert counted(net.registry, "net_dropped_packets") == 0

    def test_delivered_path_counts_no_drops(self):
        sim, net = build_line()
        net.send_along_path([0, 1, 2, 3], data_packet(sim))
        sim.run_until(2.0)
        assert counted(net.registry, "net_delivered_packets") == 1
        assert counted(net.registry, "net_dropped_packets") == 0
        assert counted(net.registry, "net_hop_failures") == 0

    def test_counters_symmetric_over_mixed_outcomes(self):
        sim, net = build_line()
        net.send_along_path([0, 1, 2], data_packet(sim))
        net.node(3).failed = True
        net.send_along_path([1, 2, 3], data_packet(sim, src=1))
        sim.run_until(3.0)
        assert counted(net.registry, "net_delivered_packets") == 1
        assert counted(net.registry, "net_dropped_packets") == 1


class TestFloodEnergyKind:
    def test_flood_energy_keyed_as_flood(self):
        sim, net = build_line()
        net.flood(0, ttl=5)
        # Forwarder transmissions and receptions both land under the
        # "flood" traffic class — nothing leaks into the default kind.
        assert net.energy.kinds() == {"flood": net.energy.grand_total()}
        assert net.energy.total_by_kind("flood") == net.energy.grand_total()

    def test_flood_multi_matches(self):
        sim, net = build_line(count=6)
        net.flood_multi([0, 5], ttl=10)
        assert net.energy.kinds() == {"flood": net.energy.grand_total()}


class TestFaultApi:
    def test_fail_and_recover(self):
        sim, net = build_line()
        net.fail_node(1)
        assert not net.node(1).usable
        net.recover_node(1)
        assert net.node(1).usable

    def test_phase_switch(self):
        sim, net = build_line()
        net.send(0, 1, data_packet(sim))
        sim.run_until(1.0)
        net.set_phase(Phase.COMMUNICATION)
        net.send(0, 1, data_packet(sim))
        sim.run_until(2.0)
        assert net.energy.total(Phase.CONSTRUCTION) == 2.75
        assert net.energy.total(Phase.COMMUNICATION) == 2.75

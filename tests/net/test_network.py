"""Tests for the network facade: unicast, multi-hop relay, flooding."""

import random

import pytest

from repro.errors import NetworkError
from repro.net.energy import Phase
from repro.net.mobility import StaticMobility
from repro.net.network import WirelessNetwork
from repro.net.node import Node, NodeRole
from repro.net.packet import Packet, PacketKind
from repro.sim.core import Simulator
from repro.util.geometry import Point


def build_line(count=4, spacing=80.0, seed=1, loss=0.0):
    """A chain of sensors ``spacing`` apart, 100 m range."""
    from repro.net.mac import MacConfig

    sim = Simulator()
    net = WirelessNetwork(
        sim,
        random.Random(seed),
        mac_config=MacConfig(base_loss=loss, contention_loss=0.0),
    )
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


def data_packet(sim, src=0, dst=None, size=1000):
    return Packet(PacketKind.DATA, size, src, dst, sim.now)


class TestUnicast:
    def test_delivery_and_energy(self):
        sim, net = build_line()
        done = []
        net.send(0, 1, data_packet(sim), on_delivered=done.append)
        sim.run_until(1.0)
        assert len(done) == 1
        assert net.energy.tx_packets == 1
        assert net.energy.rx_packets == 1
        assert net.energy.grand_total() == 2.75

    def test_out_of_range_fails_after_timeout(self):
        sim, net = build_line()
        failures = []
        net.send(
            0, 2, data_packet(sim),
            on_failed=lambda pkt, at: failures.append((at, sim.now)),
        )
        sim.run_until(1.0)
        assert failures
        at, when = failures[0]
        assert at == 0
        assert when > 0.0                    # sender burned its timeout
        assert net.energy.tx_packets == 1    # tx charged even on failure
        assert net.energy.rx_packets == 0

    def test_failed_source_fails_immediately(self):
        sim, net = build_line()
        net.node(0).failed = True
        failures = []
        net.send(0, 1, data_packet(sim), on_failed=lambda p, a: failures.append(a))
        sim.run_until(1.0)
        assert failures == [0]
        assert net.energy.tx_packets == 0

    def test_receive_handler_fires(self):
        sim, net = build_line()
        received = []
        net.set_receive_handler(1, received.append)
        net.send(0, 1, data_packet(sim))
        sim.run_until(1.0)
        assert len(received) == 1

    def test_handler_suppressed_for_relay_hops(self):
        sim, net = build_line()
        received = []
        net.set_receive_handler(1, received.append)
        net.send(0, 1, data_packet(sim), deliver_to_handler=False)
        sim.run_until(1.0)
        assert received == []

    def test_hop_recorded(self):
        sim, net = build_line()
        pkt = data_packet(sim)
        net.send(0, 1, pkt)
        sim.run_until(1.0)
        assert pkt.hops == [0]

    def test_mac_loss_exhausts_retries(self):
        sim, net = build_line(loss=1.0)   # every frame lost
        failures = []
        net.send(0, 1, data_packet(sim), on_failed=lambda p, a: failures.append(a))
        sim.run_until(1.0)
        assert failures == [0]


class TestSendAlongPath:
    def test_full_relay(self):
        sim, net = build_line()
        done = []
        net.send_along_path([0, 1, 2, 3], data_packet(sim), on_delivered=done.append)
        sim.run_until(1.0)
        assert len(done) == 1
        assert net.delivered_packets == 1
        # 3 transmissions + 3 receptions
        assert net.energy.grand_total() == 3 * 2.75

    def test_failure_reports_breaking_node(self):
        sim, net = build_line()
        net.node(2).failed = True
        failures = []
        net.send_along_path(
            [0, 1, 2, 3], data_packet(sim),
            on_failed=lambda p, at: failures.append(at),
        )
        sim.run_until(1.0)
        assert failures == [1]

    def test_handler_only_at_destination(self):
        sim, net = build_line()
        seen = {1: [], 2: [], 3: []}
        for node_id in (1, 2, 3):
            net.set_receive_handler(node_id, seen[node_id].append)
        net.send_along_path([0, 1, 2, 3], data_packet(sim))
        sim.run_until(1.0)
        assert seen[1] == [] and seen[2] == []
        assert len(seen[3]) == 1

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
        assert net.energy.tx_packets == 3
        assert net.energy.rx_packets == 4

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
        assert net.energy.tx_packets == 0 and net.energy.rx_packets == 0
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
        assert net.energy.tx_packets == 6

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
        assert net.dropped_packets == 1
        assert net.hop_failures >= 1
        assert net.delivered_packets == 0

    def test_hop_failure_alone_is_not_a_drop(self):
        # A protocol driving send() directly may recover the packet over
        # another path — the facade must not call that an end-to-end drop.
        sim, net = build_line()
        failures = []
        net.send(0, 2, data_packet(sim), on_failed=lambda p, a: failures.append(a))
        sim.run_until(1.0)
        assert failures
        assert net.hop_failures == 1
        assert net.dropped_packets == 0

    def test_delivered_path_counts_no_drops(self):
        sim, net = build_line()
        net.send_along_path([0, 1, 2, 3], data_packet(sim))
        sim.run_until(2.0)
        assert net.delivered_packets == 1
        assert net.dropped_packets == 0
        assert net.hop_failures == 0

    def test_counters_symmetric_over_mixed_outcomes(self):
        sim, net = build_line()
        net.send_along_path([0, 1, 2], data_packet(sim))
        net.node(3).failed = True
        net.send_along_path([1, 2, 3], data_packet(sim, src=1))
        sim.run_until(3.0)
        assert net.delivered_packets == 1
        assert net.dropped_packets == 1


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

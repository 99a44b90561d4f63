"""Unit tests for the per-hop ARQ layer."""

import random

import pytest

import repro.net.mac as mac_module
import repro.recovery.arq as arq_module
from repro.net.mobility import StaticMobility
from repro.net.network import WirelessNetwork
from repro.net.node import Node, NodeRole
from repro.net.packet import Packet, PacketKind
from repro.qos.backpressure import HIGH_WATER
from repro.qos.manager import QosManager
from repro.recovery import ArqLink
from repro.sim.core import Simulator
from repro.util.geometry import Point


@pytest.fixture
def clean_links(monkeypatch):
    """No MAC frame loss and no ACK loss: what a hop does is up to the
    test (which patches further through the returned ``monkeypatch``)."""
    monkeypatch.setattr(mac_module, "BASE_LOSS", 0.0)
    monkeypatch.setattr(mac_module, "CONTENTION_LOSS", 0.0)
    monkeypatch.setattr(arq_module, "ACK_LOSS", 0.0)
    return monkeypatch


def build_pair(range_m=200.0, spacing=60.0, seed=3):
    sim = Simulator()
    net = WirelessNetwork(sim, random.Random(seed))
    for i in range(2):
        net.add_node(
            Node(
                i,
                NodeRole.SENSOR,
                StaticMobility(Point(i * spacing, 0.0)),
                range_m,
            )
        )
    return sim, net


def packet(src=0, dst=1, now=0.0):
    return Packet(
        kind=PacketKind.DATA,
        size_bytes=200,
        source=src,
        destination=dst,
        created_at=now,
    )


class TestArqLink:
    def test_clean_hop_delivers_once(self, clean_links):
        sim, net = build_pair()
        link = ArqLink(net, random.Random(5))
        delivered, failed = [], []
        link.send(
            0, 1, packet(),
            on_delivered=delivered.append,
            on_failed=lambda p, at: failed.append(p),
        )
        sim.run_until(1.0)
        assert len(delivered) == 1
        assert not failed
        assert link.stats.attempts == 1
        assert link.stats.retransmissions == 0

    def test_retransmission_recovers_lossy_hop(self, clean_links):
        # MAC with no link-layer retries and heavy loss: only the ARQ
        # stands between a lost frame and a hop failure.
        clean_links.setattr(mac_module, "BASE_LOSS", 0.5)
        clean_links.setattr(mac_module, "RETRY_LIMIT", 0)
        clean_links.setattr(arq_module, "BUDGET", 4)
        sim, net = build_pair()
        link = ArqLink(net, random.Random(5))
        delivered = []
        for i in range(40):
            link.send(0, 1, packet(now=i * 0.1), on_delivered=delivered.append)
        sim.run_until(60.0)
        assert link.stats.retransmissions > 0
        assert link.stats.recovered_by_retransmit > 0
        # The ARQ lifts per-hop reliability well above the raw 50%.
        assert len(delivered) >= 35

    def test_lost_acks_never_cause_duplicate_delivery(self, clean_links):
        # Every ACK is lost: the sender burns its whole budget (two
        # retransmissions) on a frame the receiver already forwarded.
        clean_links.setattr(arq_module, "ACK_LOSS", 1.0)
        clean_links.setattr(arq_module, "BUDGET", 2)
        sim, net = build_pair()
        link = ArqLink(net, random.Random(5))
        delivered, failed = [], []
        link.send(
            0, 1, packet(),
            on_delivered=delivered.append,
            on_failed=lambda p, at: failed.append(p),
        )
        sim.run_until(5.0)
        assert len(delivered) == 1
        assert not failed          # the data DID arrive; no hop failure
        assert link.stats.duplicates_suppressed == 2
        assert link.stats.exhausted == 1
        assert link.stats.ack_losses == 3

    def test_a_refused_redundant_attempt_leaves_no_verdict(self, clean_links):
        # The data arrives and its ACK is lost; by the retransmission the
        # receiver is congested, so QoS refuses the redundant frame.  The
        # packet has moved on: the refusal must not stay on it, or the
        # router would drop its next failed hop under that verdict.
        clean_links.setattr(arq_module, "ACK_LOSS", 1.0)
        sim, net = build_pair()
        qos = QosManager(sim, net)
        qos.install(net)
        link = ArqLink(net, random.Random(5))
        delivered, failed = [], []

        def arrived(pkt):
            delivered.append(pkt)
            qos.state.note_depth(1, HIGH_WATER)

        pkt = packet()
        link.send(
            0, 1, pkt,
            on_delivered=arrived,
            on_failed=lambda p, at: failed.append(p),
        )
        sim.run_until(5.0)
        assert delivered == [pkt] and not failed
        assert qos.stats.backpressure_sheds == 1
        assert pkt.meta == {}

    def test_budget_exhaustion_reports_failure_once(self, clean_links):
        # Destination out of range: every attempt fails at the network
        # layer, and after the budget the hop failure propagates.
        clean_links.setattr(arq_module, "BUDGET", 2)
        sim, net = build_pair(range_m=40.0, spacing=60.0)
        link = ArqLink(net, random.Random(5))
        delivered, failed = [], []
        link.send(
            0, 1, packet(),
            on_delivered=delivered.append,
            on_failed=lambda p, at: failed.append(p),
        )
        sim.run_until(5.0)
        assert not delivered
        assert len(failed) == 1
        assert link.stats.attempts == 3        # original + 2 retransmits
        assert link.stats.exhausted == 1

    def test_ack_energy_charged_to_ack_ledger(self, clean_links):
        sim, net = build_pair()
        link = ArqLink(net, random.Random(5))
        link.send(0, 1, packet())
        sim.run_until(1.0)
        assert net.energy.total_by_kind("ack") > 0.0

    def test_backoff_grows_with_attempt(self, monkeypatch):
        monkeypatch.setattr(arq_module, "BACKOFF", 0.01)
        monkeypatch.setattr(arq_module, "BACKOFF_FACTOR", 2.0)
        monkeypatch.setattr(arq_module, "JITTER", 0.0)
        sim, net = build_pair()
        link = ArqLink(net, random.Random(5))
        assert link._backoff_delay(0) == pytest.approx(0.01)
        assert link._backoff_delay(2) == pytest.approx(0.04)

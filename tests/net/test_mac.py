"""Tests for the contention MAC model."""

import random

import pytest

import repro.net.mac as mac_module
from repro.net.mac import ContentionMac, airtime
from repro.net.medium import WirelessMedium
from repro.net.mobility import StaticMobility
from repro.net.node import Node, NodeRole
from repro.net.packet import Packet, PacketKind
from repro.sim.core import Simulator
from repro.util.geometry import Point


def setup(monkeypatch, loss=0.0, contention_loss=0.0):
    """Three sensors in a line; the MAC's loss constants patched."""
    monkeypatch.setattr(mac_module, "BASE_LOSS", loss)
    monkeypatch.setattr(mac_module, "CONTENTION_LOSS", contention_loss)
    sim = Simulator()
    medium = WirelessMedium()
    for i in range(3):
        medium.add_node(
            Node(i, NodeRole.SENSOR, StaticMobility(Point(i * 50.0, 0)), 100.0)
        )
    mac = ContentionMac(sim, medium, random.Random(1))
    return sim, medium, mac


def packet(size=1000):
    return Packet(PacketKind.DATA, size, 0, 1, 0.0)


class TestConfig:
    """The contention model's constants."""

    def test_airtime(self):
        assert airtime(1000) == pytest.approx(0.004)

    def test_broadcast_airtime(self, monkeypatch):
        sim, medium, mac = setup(monkeypatch)
        assert mac.broadcast_airtime(500) == airtime(500)


class TestTransmit:
    def test_success_without_loss(self, monkeypatch):
        sim, medium, mac = setup(monkeypatch)
        results = []
        mac.transmit(
            0, 1, packet(), lambda cause, t: results.append((cause, t))
        )
        sim.run()
        assert results[0][0] is None
        # Completion includes airtime + processing delay.
        assert results[0][1] >= 0.004

    def test_loss_exhausts_retries(self, monkeypatch):
        sim, medium, mac = setup(monkeypatch, loss=1.0)
        results = []
        mac.transmit(0, 1, packet(), lambda cause, t: results.append(cause))
        sim.run()
        assert results == ["mac-loss"]

    def test_retries_add_delay(self, monkeypatch):
        sim, medium, mac = setup(monkeypatch, loss=0.0)
        clean = []
        mac.transmit(0, 1, packet(), lambda cause, t: clean.append(t))
        sim.run()

        sim2, medium2, mac2 = setup(monkeypatch, loss=1.0)
        lossy = []
        mac2.transmit(0, 1, packet(), lambda cause, t: lossy.append(t))
        sim2.run()
        assert lossy[0] > clean[0]

    def test_sender_queue_serialises(self, monkeypatch):
        """Back-to-back frames from one radio are serialised."""
        sim, medium, mac = setup(monkeypatch)
        completions = []
        mac.transmit(0, 1, packet(), lambda cause, t: completions.append(t))
        mac.transmit(0, 1, packet(), lambda cause, t: completions.append(t))
        sim.run()
        assert completions[1] >= completions[0] + airtime(1000)

    def test_busy_neighbors_add_backoff(self, monkeypatch):
        sim, medium, mac = setup(monkeypatch)
        medium.node(1).radio_busy_until = 100.0   # busy neighbour of 0
        slow = []
        mac.transmit(0, 2, packet(), lambda cause, t: slow.append(t))
        sim.run()

        sim2, medium2, mac2 = setup(monkeypatch)
        fast = []
        mac2.transmit(0, 2, packet(), lambda cause, t: fast.append(t))
        sim2.run()
        assert slow[0] > fast[0]

    def test_loss_probability_capped(self, monkeypatch):
        sim, medium, mac = setup(monkeypatch, loss=0.2, contention_loss=1.0)
        for i in (1, 2):
            medium.node(i).radio_busy_until = 100.0
        # With the cap at MAX_LOSS the success probability over
        # retries stays meaningfully positive.
        successes = 0
        for _ in range(50):
            results = []
            mac.transmit(
                0, 1, packet(), lambda cause, t: results.append(cause)
            )
            sim.run()
            successes += results[0] is None
        assert successes > 25

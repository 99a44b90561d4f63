"""Tests for the repair substrate the three baselines share."""

from repro.baselines.base import FloodingSystem
from repro.net.packet import Packet, PacketKind


def test_a_packet_is_retried_in_place_twice_and_its_copy_inherits_the_count():
    packet = Packet(PacketKind.DATA, 1000, 5, None, 0.0)
    assert FloodingSystem._retry_congested(packet)
    assert FloodingSystem._retry_congested(packet)
    assert not FloodingSystem._retry_congested(packet)
    copy = packet.clone_for_retransmit(1.0)
    assert copy.uid != packet.uid
    assert not FloodingSystem._retry_congested(copy)

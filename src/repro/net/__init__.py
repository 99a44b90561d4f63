"""Wireless network substrate: the ns-2 stand-in.

Packet-level wireless simulation with range-based connectivity,
CSMA-style contention, FIFO per-node radio queues, random-waypoint
mobility, per-packet energy accounting (the paper's 2 J tx / 0.75 J rx
constants) and fault injection.
"""

from repro.net.energy import EnergyLedger, Phase
from repro.net.mobility import RandomWaypoint, StaticMobility
from repro.net.node import Node, NodeRole
from repro.net.packet import Packet, PacketKind
from repro.net.medium import WirelessMedium
from repro.net.network import WirelessNetwork
from repro.net.discovery import FloodDiscovery
from repro.net.spatial import GridOccupancy, GridStats, SpatialHashGrid

__all__ = [
    "GridOccupancy",
    "GridStats",
    "SpatialHashGrid",
    "EnergyLedger",
    "Phase",
    "RandomWaypoint",
    "StaticMobility",
    "Node",
    "NodeRole",
    "Packet",
    "PacketKind",
    "WirelessMedium",
    "WirelessNetwork",
    "FloodDiscovery",
]

"""Hop-level backpressure: congestion marks with hysteresis.

A node whose MAC priority queue reaches the high-water mark is marked
*congested*; the mark clears once the queue drains to the low-water
mark.  The shared :class:`BackpressureState` models the one-hop
congestion signal of the paper's real deployment (an explicit bit in
the link-layer header): upstream nodes consult it before committing a
bulk frame toward a congested next hop — shedding it or detouring via
the Kautz disjoint paths — and traffic sources throttle their bulk
token buckets while any mark is raised.
"""

from __future__ import annotations

from typing import Set

from repro.qos.stats import QosStats

__all__ = ["BackpressureState"]

#: Queue depth at which a node is marked congested.
HIGH_WATER = 6
#: Queue depth at which the congestion mark clears (hysteresis).
LOW_WATER = 2


class BackpressureState:
    """Congested-node marks, maintained by the MAC queue scheduler."""

    def __init__(self, stats: QosStats) -> None:
        self._stats = stats
        self._congested: Set[int] = set()

    def note_depth(self, node_id: int, depth: int) -> None:
        """Record a node's current queue depth (drives the marks)."""
        if depth >= HIGH_WATER:
            if node_id not in self._congested:
                self._congested.add(node_id)
                self._stats.congestion_onsets += 1
        elif depth <= LOW_WATER and node_id in self._congested:
            self._congested.discard(node_id)
            self._stats.congestion_clears += 1

    def is_congested(self, node_id: int) -> bool:
        """Whether the node currently signals congestion upstream."""
        return node_id in self._congested

    def any_congested(self) -> bool:
        """Whether any node in the network signals congestion."""
        return bool(self._congested)

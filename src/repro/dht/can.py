"""A Content-Addressable Network (CAN) overlay.

Section III-B3: REFER's actuators form a CAN keyed by cell ID; a node
routes a message by forwarding it to the neighbour whose coordinates
are closest to the destination's.  This module implements the classic
2-d CAN: a unit coordinate square dynamically partitioned into
rectangular zones, one owner per zone, neighbour sets derived from
zone adjacency, greedy coordinate routing, and zone handover on leave.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import DHTError

PointT = Tuple[float, float]


@dataclass(frozen=True)
class Zone:
    """A half-open axis-aligned rectangle [x0, x1) x [y0, y1)."""

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self) -> None:
        if self.x0 >= self.x1 or self.y0 >= self.y1:
            raise DHTError(f"degenerate zone {self}")

    def contains(self, point: PointT) -> bool:
        x, y = point
        return self.x0 <= x < self.x1 and self.y0 <= y < self.y1

    @property
    def volume(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    def split(self) -> Tuple["Zone", "Zone"]:
        """Halve along the longer side (ties split x), CAN-style."""
        width, height = self.x1 - self.x0, self.y1 - self.y0
        if width >= height:
            mid = (self.x0 + self.x1) / 2.0
            return (
                Zone(self.x0, mid, self.y0, self.y1),
                Zone(mid, self.x1, self.y0, self.y1),
            )
        mid = (self.y0 + self.y1) / 2.0
        return (
            Zone(self.x0, self.x1, self.y0, mid),
            Zone(self.x0, self.x1, mid, self.y1),
        )

    def adjacent(self, other: "Zone") -> bool:
        """Whether the zones share a border segment (CAN neighbourship)."""
        touch_x = self.x1 == other.x0 or other.x1 == self.x0
        touch_y = self.y1 == other.y0 or other.y1 == self.y0
        overlap_x = self.x0 < other.x1 and other.x0 < self.x1
        overlap_y = self.y0 < other.y1 and other.y0 < self.y1
        return (touch_x and overlap_y) or (touch_y and overlap_x)

    def distance_to(self, point: PointT) -> float:
        """Euclidean distance from ``point`` to the zone (0 if inside)."""
        x, y = point
        dx = max(self.x0 - x, 0.0, x - self.x1)
        dy = max(self.y0 - y, 0.0, y - self.y1)
        return (dx * dx + dy * dy) ** 0.5


class CanOverlay:
    """A 2-d CAN over the unit square."""

    def __init__(self) -> None:
        self._zones: Dict[int, List[Zone]] = {}

    # -- membership ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._zones)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._zones

    def nodes(self) -> List[int]:
        return list(self._zones)

    def zones_of(self, node_id: int) -> List[Zone]:
        try:
            return list(self._zones[node_id])
        except KeyError:
            raise DHTError(f"unknown CAN node {node_id}") from None

    def join(self, node_id: int, point: PointT) -> None:
        """Join at ``point``: split the owning zone, take one half.

        The first joiner owns the whole square.
        """
        if node_id in self._zones:
            raise DHTError(f"node {node_id} already joined")
        self._validate_point(point)
        if not self._zones:
            self._zones[node_id] = [Zone(0.0, 1.0, 0.0, 1.0)]
            return
        owner = self.owner_of(point)
        owner_zones = self._zones[owner]
        # Split the owner's zone that contains the point.
        index = next(
            i for i, z in enumerate(owner_zones) if z.contains(point)
        )
        first, second = owner_zones[index].split()
        if second.contains(point):
            keep, give = first, second
        else:
            keep, give = second, first
        owner_zones[index] = keep
        self._zones[node_id] = [give]

    def leave(self, node_id: int) -> None:
        """Leave; zones are handed to the smallest adjacent neighbour."""
        zones = self.zones_of(node_id)
        del self._zones[node_id]
        if not self._zones:
            return
        for zone in zones:
            heir = self._best_heir(zone)
            self._zones[heir].append(zone)

    def _best_heir(self, zone: Zone) -> int:
        candidates = [
            (sum(z.volume for z in zs), node_id)
            for node_id, zs in self._zones.items()
            if any(z.adjacent(zone) for z in zs)
        ]
        if not candidates:
            # Disconnected geometry (should not happen with CAN splits);
            # fall back to the globally smallest owner.
            candidates = [
                (sum(z.volume for z in zs), node_id)
                for node_id, zs in self._zones.items()
            ]
        return min(candidates)[1]

    # -- lookups --------------------------------------------------------------

    @staticmethod
    def _validate_point(point: PointT) -> None:
        x, y = point
        if not (0.0 <= x < 1.0 and 0.0 <= y < 1.0):
            raise DHTError(f"point outside unit square: {point}")

    def owner_of(self, point: PointT) -> int:
        """The node whose zone contains ``point``."""
        self._validate_point(point)
        for node_id, zones in self._zones.items():
            if any(zone.contains(point) for zone in zones):
                return node_id
        raise DHTError(f"no owner for {point} (empty overlay?)")

    def neighbors(self, node_id: int) -> List[int]:
        """Nodes whose zones border this node's zones."""
        own = self.zones_of(node_id)
        result = []
        for other_id, zones in self._zones.items():
            if other_id == node_id:
                continue
            if any(a.adjacent(b) for a in own for b in zones):
                result.append(other_id)
        return result

    # -- routing ----------------------------------------------------------------

    def route(self, src_id: int, point: PointT) -> List[int]:
        """Greedy CAN route from ``src_id`` to the owner of ``point``.

        Each step forwards to the neighbour whose zone is closest to
        the destination point.  Returns the node-id path including both
        endpoints; raises :class:`DHTError` if greedy progress stalls
        (cannot happen in a well-formed CAN partition).
        """
        self._validate_point(point)
        if src_id not in self._zones:
            raise DHTError(f"unknown CAN node {src_id}")
        path = [src_id]
        current = src_id
        seen = {src_id}
        while not any(z.contains(point) for z in self._zones[current]):
            best: Optional[Tuple[float, int]] = None
            for nb in self.neighbors(current):
                if nb in seen:
                    continue
                distance = min(
                    z.distance_to(point) for z in self._zones[nb]
                )
                if best is None or (distance, nb) < best:
                    best = (distance, nb)
            if best is None:
                raise DHTError(
                    f"greedy CAN routing stalled at {current} -> {point}"
                )
            current = best[1]
            seen.add(current)
            path.append(current)
        return path

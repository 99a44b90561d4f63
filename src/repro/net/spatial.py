"""Uniform spatial hash grid for range queries over node positions.

Every hop, probe and maintenance tick asks the medium "who is within
range of X right now" — a brute-force scan makes that O(n) per query
and O(n^2) per cache bucket, which is exactly the neighbour-discovery
cost the QoS literature identifies as the scaling limiter for
real-time WSANs.  This module replaces the scan with a uniform grid
hash: points are bucketed into square cells (the medium sizes them to
the median transmission range), so a ``within_range`` query only
examines the cells overlapping the query disk.

Exactness contract: :meth:`SpatialHashGrid.within_range` returns
*precisely* the points whose Euclidean distance to the query point is
``<= radius``, computed with the same ``math.hypot`` arithmetic as
:meth:`repro.util.geometry.Point.distance_to` — the grid only prunes
candidates, it never changes the predicate.  Results are sorted by
item id so downstream iteration order is deterministic and independent
of bucketing internals.  The property suite in
``tests/net/test_spatial_properties.py`` pins this equivalence
(including points sitting exactly on cell boundaries and on the range
limit) against the brute-force oracle.

Mobility integration is left to the caller (the
:class:`~repro.net.medium.WirelessMedium` keeps its position snapshot
here and :meth:`~SpatialHashGrid.move`-s mobile items once per cache
bucket; a point that stayed inside its cell costs a comparison, not a
re-hash).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, List, Set, Tuple

from repro.errors import NetworkError
from repro.util.geometry import Point

CellKey = Tuple[int, int]


@dataclass
class GridStats:
    """Operation counters exposed for benchmarks and ablations.

    ``candidates`` vs ``matches`` quantifies query cost: the grid
    examines ``candidates`` stored points per query (the occupancy of
    the cells overlapping the query disk) where a brute-force scan
    would examine every stored point.
    """

    queries: int = 0
    #: Points examined across all queries (the grid's analogue of the
    #: brute-force n-per-query scan cost).
    candidates: int = 0
    #: Points actually within range across all queries.
    matches: int = 0
    inserts: int = 0
    removes: int = 0
    #: Moved items whose re-hash crossed a cell boundary.
    rebuckets: int = 0
    #: Moved items whose re-hash found them still in their cell.
    in_cell_moves: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


@dataclass(frozen=True)
class GridOccupancy:
    """Snapshot of how points distribute over occupied cells."""

    items: int
    occupied_cells: int
    max_per_cell: int

    @property
    def mean_per_cell(self) -> float:
        if self.occupied_cells == 0:
            return 0.0
        return self.items / self.occupied_cells


class SpatialHashGrid:
    """A uniform grid hash over 2-D points keyed by integer item ids.

    ``cell_size`` trades memory for pruning power; a ``within_range``
    query whose radius is at most the cell size touches at most a 3x3
    block of cells.  Any positive cell size is *correct*
    (the query derives its cell span from the radius), smaller or
    larger sizes only shift the candidate count.
    """

    def __init__(self, cell_size: float) -> None:
        if cell_size <= 0:
            raise NetworkError("cell_size must be positive")
        self.cell_size = cell_size
        self._cells: Dict[CellKey, Set[int]] = {}
        self._positions: Dict[int, Point] = {}
        self._keys: Dict[int, CellKey] = {}
        self.stats = GridStats()

    # -- bucketing ----------------------------------------------------------

    def _key(self, point: Point) -> CellKey:
        return (
            math.floor(point.x / self.cell_size),
            math.floor(point.y / self.cell_size),
        )

    # -- mutation -----------------------------------------------------------

    def insert(self, item_id: int, point: Point) -> None:
        """Add a new item; raises :class:`NetworkError` on duplicates."""
        if item_id in self._positions:
            raise NetworkError(f"duplicate grid item {item_id}")
        key = self._key(point)
        self._cells.setdefault(key, set()).add(item_id)
        self._positions[item_id] = point
        self._keys[item_id] = key
        self.stats.inserts += 1

    def remove(self, item_id: int) -> None:
        """Drop an item; raises :class:`NetworkError` if unknown."""
        try:
            key = self._keys.pop(item_id)
        except KeyError:
            raise NetworkError(f"unknown grid item {item_id}") from None
        del self._positions[item_id]
        bucket = self._cells[key]
        bucket.discard(item_id)
        if not bucket:
            del self._cells[key]
        self.stats.removes += 1

    def move(self, item_id: int, point: Point) -> None:
        """Update one position; re-hashes only on a cell crossing."""
        try:
            old_key = self._keys[item_id]
        except KeyError:
            raise NetworkError(f"unknown grid item {item_id}") from None
        self._positions[item_id] = point
        new_key = self._key(point)
        if new_key == old_key:
            self.stats.in_cell_moves += 1
            return
        bucket = self._cells[old_key]
        bucket.discard(item_id)
        if not bucket:
            del self._cells[old_key]
        self._cells.setdefault(new_key, set()).add(item_id)
        self._keys[item_id] = new_key
        self.stats.rebuckets += 1

    # -- lookup -------------------------------------------------------------

    def position_of(self, item_id: int) -> Point:
        try:
            return self._positions[item_id]
        except KeyError:
            raise NetworkError(f"unknown grid item {item_id}") from None

    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, item_id: int) -> bool:
        return item_id in self._positions

    def items(self) -> List[int]:
        return list(self._positions)

    # -- queries ------------------------------------------------------------

    def within_range(
        self, point: Point, radius: float
    ) -> List[Tuple[int, float]]:
        """All ``(item_id, distance)`` with distance ``<= radius``.

        Sorted by item id.  The distance predicate and arithmetic are
        identical to a brute-force scan over the stored points — the
        grid never changes which items match, only how many are
        examined.
        """
        if radius < 0:
            raise NetworkError("radius must be non-negative")
        size = self.cell_size
        x, y = point.x, point.y
        cx_lo = math.floor((x - radius) / size)
        cx_hi = math.floor((x + radius) / size)
        cy_lo = math.floor((y - radius) / size)
        cy_hi = math.floor((y + radius) / size)
        out: List[Tuple[int, float]] = []
        cells = self._cells
        positions = self._positions
        candidates = 0
        for cx in range(cx_lo, cx_hi + 1):
            for cy in range(cy_lo, cy_hi + 1):
                bucket = cells.get((cx, cy))
                if not bucket:
                    continue
                candidates += len(bucket)
                for item_id in bucket:
                    p = positions[item_id]
                    distance = math.hypot(x - p.x, y - p.y)
                    if distance <= radius:
                        out.append((item_id, distance))
        self.stats.queries += 1
        self.stats.candidates += candidates
        self.stats.matches += len(out)
        out.sort()
        return out

    def occupancy(self) -> GridOccupancy:
        """Distribution snapshot (for benchmarks and capacity checks)."""
        return GridOccupancy(
            items=len(self._positions),
            occupied_cells=len(self._cells),
            max_per_cell=max(
                (len(bucket) for bucket in self._cells.values()), default=0
            ),
        )


def brute_force_within_range(
    positions: Dict[int, Point], point: Point, radius: float
) -> List[Tuple[int, float]]:
    """The O(n) oracle :meth:`SpatialHashGrid.within_range` must match.

    Kept in the library (not the tests) so the ablation bench and the
    test suites all compare against the same scan; nothing under
    ``src/`` calls it.
    """
    out: List[Tuple[int, float]] = []
    for item_id, p in positions.items():
        distance = math.hypot(point.x - p.x, point.y - p.y)
        if distance <= radius:
            out.append((item_id, distance))
    out.sort()
    return out


__all__ = [
    "GridOccupancy",
    "GridStats",
    "SpatialHashGrid",
    "brute_force_within_range",
]

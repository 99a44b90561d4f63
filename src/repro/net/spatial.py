"""Uniform spatial hash grid for range queries over node positions.

Every hop, probe and maintenance tick asks the medium "who is within
range of X right now" — a brute-force scan makes that O(n) per query
and O(n^2) per cache bucket, which is exactly the neighbour-discovery
cost the QoS literature identifies as the scaling limiter for
real-time WSANs.  This module replaces the scan with a uniform grid
hash: points are bucketed into square cells (the medium sizes them to
the median transmission range), and ``mutual_neighbours`` — the
medium's neighbour lists, for any set of ids in one pass — pairs each
cell holding one of them with itself and its eight neighbours and
computes each pair's distance once.

Exactness contract: :meth:`SpatialHashGrid.mutual_neighbours` lists
for an item every item whose distance, computed with the same
``math.hypot`` arithmetic as
:meth:`repro.util.geometry.Point.distance_to`, is ``<=`` both their
``transmission_range``s — the grid only prunes candidates, it never
changes the predicate — and reads no liveness (the medium filters by
``usable`` when a list is first used).  Results are sorted by item id so
downstream iteration order is deterministic and independent of
bucketing internals.  The property suite in
``tests/net/test_spatial_properties.py`` pins it against the
brute-force oracle, including points sitting exactly on cell
boundaries and on the range limit.

Mobility integration is left to the caller (the
:class:`~repro.net.medium.WirelessMedium` keeps its position snapshot
here and :meth:`~SpatialHashGrid.move`-s mobile items once per cache
bucket; a point that stayed inside its cell costs a comparison, not a
re-hash).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

from repro.errors import NetworkError
from repro.net.node import Node
from repro.util.geometry import Point

CellKey = Tuple[int, int]

#: How much longer than the range it is sized for a cell side is kept
#: (relative): a pair two cells apart is then out of that range however
#: ``floor`` and ``hypot`` round, where a side exactly equal to it lets
#: one rounding pair a point just below a seam with one a cell past it.
CELL_SLACK = 2.0 ** -24

#: The eight neighbour offsets of a cell, each flagged forward or not:
#: of two cells that both need a pass, the pair is taken from the one
#: it is forward of.
_STENCIL = tuple(
    (dx, dy, (dx, dy) > (0, 0))
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    if dx or dy
)


@dataclass
class GridStats:
    """Operation counters exposed for benchmarks and ablations.

    ``candidates`` vs ``matches`` quantifies query cost: a
    ``mutual_neighbours`` pass counts a query per id, a candidate per
    pair examined (where a brute-force scan would examine every stored
    point per id) and a match per id listed.
    """

    queries: int = 0
    #: Pairs examined across all passes: the grid's analogue of the
    #: brute-force n-per-query scan cost.
    candidates: int = 0
    #: Ids listed across all passes.
    matches: int = 0
    inserts: int = 0
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


class SpatialHashGrid:
    """A uniform grid hash over 2-D points keyed by integer item ids.

    ``cell_size`` trades memory for pruning power: a pass pairs a cell
    with its 3x3 block, and tests the pairs of items whose range
    exceeds the side (``wide``) directly.  Any positive cell size is
    *correct*; smaller or larger sizes only shift the candidate count.
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

    def items(self) -> List[int]:
        return list(self._positions)

    # -- queries ------------------------------------------------------------

    def mutual_neighbours(
        self,
        item_ids: Iterable[int],
        peers: Mapping[int, Node],
        wide: Sequence[int],
    ) -> Dict[int, List[int]]:
        """Each of ``item_ids``' mutual-range items, in ascending id.

        ``b`` is listed for ``a`` iff ``hypot(xa - xb, ya - yb)`` is
        ``<=`` both ``peers[a].transmission_range`` and ``peers[b]``'s:
        the arithmetic of a query from either end, since the two
        differences only change sign.  Liveness is not read.

        Each pair's distance is computed once, in one pass: every cell
        holding one of ``item_ids`` is paired with itself and with each
        of its eight neighbours, two such cells once (from the one the
        other is forward of).  That covers every pair in which one
        item's range, stretched by :data:`CELL_SLACK`, is at most the
        cell side: two cells apart, such a pair is out of range however
        ``floor`` and ``hypot`` round, for coordinates within 2**27
        cells of the origin.  ``wide`` must hold every other item; pairs
        of two of them two or more cells apart are tested directly.

        ``stats`` counts one query per id, the pairs examined and the
        ids listed.
        """
        lists: Dict[int, List[int]] = {item_id: [] for item_id in item_ids}
        keys = self._keys
        cells = self._cells
        positions = self._positions
        hypot = math.hypot
        wanted_at: Dict[CellKey, List[int]] = {}
        for item_id in lists:
            wanted_at.setdefault(keys[item_id], []).append(item_id)
        # The items of those cells that are not wanted.
        rest_at = {
            key: [item_id for item_id in cells[key] if item_id not in lists]
            for key in wanted_at
        }

        candidates = 0
        for (cx, cy), wanted in wanted_at.items():
            # What a wanted item here is tested against, each group
            # flagged when its items are wanted too (listed both ways):
            # the rest of this cell and of each neighbour, and a
            # neighbour's wanted items only when it is forward of here
            # (otherwise that cell tests this one's).
            jobs = [(rest_at[cx, cy], False)]
            for dx, dy, forward in _STENCIL:
                key = (cx + dx, cy + dy)
                there = cells.get(key)
                if not there:
                    continue
                wanted_there = wanted_at.get(key)
                if wanted_there is None:
                    jobs.append((there, False))
                else:
                    if forward:
                        jobs.append((wanted_there, True))
                    jobs.append((rest_at[key], False))
            for i, a in enumerate(wanted):
                la = lists[a]
                xa, ya = positions[a]
                ra = peers[a].transmission_range
                # Wanted cell-mates pair once, by position.
                for partners, listed in [(wanted[i + 1:], True)] + jobs:
                    candidates += len(partners)
                    for b in partners:
                        xb, yb = positions[b]
                        distance = hypot(xa - xb, ya - yb)
                        if distance <= ra and (
                            distance <= peers[b].transmission_range
                        ):
                            la.append(b)
                            if listed:
                                lists[b].append(a)
        for a in wide:
            la = lists.get(a)
            if la is None:
                continue
            ax, ay = keys[a]
            xa, ya = positions[a]
            ra = peers[a].transmission_range
            for b in wide:
                lb = lists.get(b)
                if lb is not None and b <= a:
                    continue  # a wanted pair is taken from its lower id
                bx, by = keys[b]
                if abs(bx - ax) < 2 and abs(by - ay) < 2:
                    continue  # the cell pass had it
                candidates += 1
                xb, yb = positions[b]
                distance = hypot(xa - xb, ya - yb)
                if distance <= ra and distance <= peers[b].transmission_range:
                    la.append(b)
                    if lb is not None:
                        lb.append(a)
        matches = 0
        for found in lists.values():
            found.sort()
            matches += len(found)
        self.stats.queries += len(lists)
        self.stats.candidates += candidates
        self.stats.matches += matches
        return lists

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
) -> List[int]:
    """The ids within ``radius`` of ``point``, sorted, by O(n) scan.

    The oracle the grid's neighbour lists are held to, kept in the
    library (not the tests) so the ablation bench and the test suites
    all compare against the same scan; nothing under ``src/`` calls it.
    """
    out = [
        item_id
        for item_id, p in positions.items()
        if math.hypot(point.x - p.x, point.y - p.y) <= radius
    ]
    out.sort()
    return out


__all__ = [
    "GridOccupancy",
    "GridStats",
    "SpatialHashGrid",
    "brute_force_within_range",
]

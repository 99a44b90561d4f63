"""The shared wireless medium: who can hear whom, right now.

Connectivity is the unit-disk model the paper uses: a transmission
from A reaches B iff their distance is within A's transmission range.
Neighbour queries are frequent (every hop, every probe), so the medium
holds one *position snapshot* per coarse time bucket and serves every
query in the bucket from it; mobility invalidates the snapshot
naturally as time advances.

Query cost is where networks stop scaling: a brute-force scan is O(n)
per query and O(n^2) per bucket.  By default the snapshot is indexed
by a :class:`~repro.net.spatial.SpatialHashGrid` (cell side = the
largest transmission range among registered nodes), which prunes each
query to the cells overlapping the query disk; ``use_spatial_index=
False`` keeps the brute-force scan for ablations and as the
equivalence oracle.  Both paths evaluate the identical predicate over
the identical snapshot, so they return byte-identical neighbour lists
(ascending node id) — the index is a pure fast path.

Registry mutations (``add_node``) invalidate the neighbour cache
immediately: a node added mid-bucket (e.g. by vertex replacement in
``core/maintenance``) is visible to the very next query, not at the
next bucket boundary.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Protocol, Tuple

from repro.errors import NetworkError
from repro.net.node import Node
from repro.net.spatial import SpatialHashGrid, brute_force_within_range
from repro.util.geometry import Point


class LinkFault(Protocol):
    """A link-level fault process layered onto the medium.

    Implementations (e.g. the Gilbert-Elliott burst model in
    ``repro.chaos``) gate :meth:`WirelessMedium.can_transmit` and scale
    :meth:`WirelessMedium.link_quality` without touching node liveness.
    Both hooks must be pure functions of ``(src, dst, now)`` given the
    implementation's own deterministic state.

    That state may advance *when a hook is called* (the Gilbert-Elliott
    chains draw lazily from one shared RNG stream), so the medium's
    side of the contract is the call order: ``link_up`` is asked only
    after both endpoints are usable and ``dst`` is within ``src``'s
    range, ``quality_factor`` only when the distance is strictly inside
    the shorter of the two ranges, once per query and in query order.
    """

    def link_up(self, src_id: int, dst_id: int, now: float) -> bool:
        """Whether the src<->dst link currently carries frames."""
        ...

    def quality_factor(self, src_id: int, dst_id: int, now: float) -> float:
        """Multiplier in [0, 1] applied to the distance-based quality."""
        ...


class WirelessMedium:
    """Registry of nodes plus range queries with time-bucketed caching."""

    def __init__(
        self,
        cache_resolution: float = 0.25,
        use_spatial_index: bool = True,
        cell_size: Optional[float] = None,
    ) -> None:
        if cache_resolution <= 0:
            raise NetworkError("cache_resolution must be positive")
        if cell_size is not None and cell_size <= 0:
            raise NetworkError("cell_size must be positive")
        self._nodes: Dict[int, Node] = {}
        #: Read-only ``id -> Node`` view of the registry, for loops over
        #: many nodes that cannot afford a :meth:`node` call each.
        self.node_table: Mapping[int, Node] = MappingProxyType(self._nodes)
        self._cache_resolution = cache_resolution
        self._neighbor_cache: Dict[Tuple[int, int], List[int]] = {}
        self._cache_bucket = -1
        self._link_fault: Optional[LinkFault] = None
        # -- position snapshot + spatial index --------------------------
        self._use_spatial_index = use_spatial_index
        self._explicit_cell_size = cell_size
        self._grid: Optional[SpatialHashGrid] = None
        #: Positions all queries in the current bucket are served from.
        self._snapshot: Dict[int, Point] = {}
        #: Node ids registered but not yet in the snapshot/grid.
        self._pending_ids: List[int] = []
        #: Node ids whose mobility can change their position.
        self._mobile_ids: List[int] = []
        # -- instrumentation --------------------------------------------
        #: Snapshot refreshes performed (one per bucket plus one per
        #: mid-bucket registry mutation).
        self.refreshes = 0
        #: Grid (re)builds — one lazy build, plus one per registered
        #: node whose range exceeds the current auto-derived cell size.
        self.grid_rebuilds = 0
        #: Points examined by brute-force scans (index disabled).
        self.brute_candidates = 0

    # -- fault hooks ---------------------------------------------------------

    def set_link_fault(self, fault: Optional[LinkFault]) -> None:
        """Install (or clear, with ``None``) a link-level fault model.

        The fault gates frame delivery (:meth:`can_transmit`) and the
        sensed signal margin (:meth:`link_quality`); topology queries
        (:meth:`neighbors`) still see the undegraded unit-disk graph,
        matching how a bursty channel hides from slow-timescale
        neighbour discovery but not from per-frame delivery.
        """
        self._link_fault = fault

    @property
    def link_fault(self) -> Optional[LinkFault]:
        return self._link_fault

    # -- registry ------------------------------------------------------------

    def add_node(self, node: Node) -> None:
        if node.id in self._nodes:
            raise NetworkError(f"duplicate node id {node.id}")
        self._nodes[node.id] = node
        # Registry mutation invalidates cached neighbour lists: a node
        # added mid-bucket must be visible to the next query, not to
        # the next 0.25 s bucket.
        self._neighbor_cache.clear()
        self._pending_ids.append(node.id)
        if not getattr(node.mobility, "is_static", False):
            self._mobile_ids.append(node.id)
        if (
            self._grid is not None
            and self._explicit_cell_size is None
            and node.transmission_range > self._grid.cell_size
        ):
            # The auto cell size tracks the largest range; a bigger
            # radio forces a rebuild (lazy, at the next refresh).
            self._grid = None

    def node(self, node_id: int) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NetworkError(f"unknown node id {node_id}") from None

    def nodes(self) -> List[Node]:
        return list(self._nodes.values())

    def node_ids(self) -> List[int]:
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    # -- position snapshot ---------------------------------------------------

    @property
    def spatial_index_enabled(self) -> bool:
        return self._use_spatial_index

    @property
    def spatial_grid(self) -> Optional[SpatialHashGrid]:
        """The live index (``None`` until first query, or when disabled)."""
        return self._grid

    def _auto_cell_size(self) -> float:
        limit = max(
            (node.transmission_range for node in self._nodes.values()),
            default=0.0,
        )
        return limit if limit > 0 else 1.0

    def _refresh_positions(self, now: float) -> None:
        """Bring the snapshot (and grid) to the positions at ``now``.

        Static nodes are bucketed once; mobile nodes re-bucket lazily —
        :meth:`SpatialHashGrid.move` only re-hashes when the node
        crossed a cell boundary.
        """
        self.refreshes += 1
        if self._use_spatial_index and self._grid is None:
            cell = self._explicit_cell_size or self._auto_cell_size()
            self._grid = SpatialHashGrid(cell)
            self.grid_rebuilds += 1
            self._snapshot.clear()
            self._pending_ids = list(self._nodes)
        grid = self._grid
        snapshot = self._snapshot
        for node_id in self._pending_ids:
            point = self._nodes[node_id].mobility.position(now)
            snapshot[node_id] = point
            if grid is not None and node_id not in grid:
                grid.insert(node_id, point)
        self._pending_ids = []
        for node_id in self._mobile_ids:
            point = self._nodes[node_id].mobility.position(now)
            snapshot[node_id] = point
            if grid is not None:
                grid.move(node_id, point)

    def index_stats(self) -> Dict[str, int]:
        """Merged instrumentation: snapshot, grid and scan counters."""
        stats: Dict[str, int] = {
            "refreshes": self.refreshes,
            "grid_rebuilds": self.grid_rebuilds,
            "brute_candidates": self.brute_candidates,
        }
        if self._grid is not None:
            stats.update(self._grid.stats.as_dict())
            occupancy = self._grid.occupancy()
            stats["occupied_cells"] = occupancy.occupied_cells
            stats["max_per_cell"] = occupancy.max_per_cell
        return stats

    # -- connectivity -------------------------------------------------------

    def _bucket(self, now: float) -> int:
        return int(now / self._cache_resolution)

    def neighbors(
        self, node_id: int, now: float, require_usable: bool = True
    ) -> List[int]:
        """IDs of nodes with a bidirectional link to ``node_id``.

        ``require_usable`` filters out failed/asleep/dead nodes — pass
        False for topology analysis that should see the whole graph.
        Lists are in ascending id order, computed against the bucket's
        position snapshot, and cached until the bucket rolls over or
        the registry changes.
        """
        bucket = self._bucket(now)
        if bucket != self._cache_bucket:
            self._neighbor_cache.clear()
            self._cache_bucket = bucket
            self._refresh_positions(now)
        elif self._pending_ids:
            self._refresh_positions(now)
        key = (node_id, 1 if require_usable else 0)
        cached = self._neighbor_cache.get(key)
        if cached is None:
            cached = self._compute_neighbors(node_id, require_usable)
            self._neighbor_cache[key] = cached
        return list(cached)

    def _compute_neighbors(
        self, node_id: int, require_usable: bool
    ) -> List[int]:
        origin = self.node(node_id)
        origin_pos = self._snapshot[node_id]
        radius = origin.transmission_range
        if self._grid is not None:
            pairs = self._grid.within_range(origin_pos, radius)
        else:
            pairs = brute_force_within_range(
                self._snapshot, origin_pos, radius
            )
            self.brute_candidates += len(self._snapshot)
        result: List[int] = []
        for other_id, distance in pairs:
            if other_id == node_id:
                continue
            other = self._nodes[other_id]
            if require_usable and not other.usable:
                continue
            if distance <= other.transmission_range:
                result.append(other_id)
        return result

    def can_transmit(self, src_id: int, dst_id: int, now: float) -> bool:
        """Whether a src->dst frame would arrive (range + liveness + link).

        The link fault is asked last, and only about frames that pass
        the liveness and range tests (see :class:`LinkFault`).
        """
        src, dst = self.node(src_id), self.node(dst_id)
        ok = (
            src.usable
            and dst.usable
            and src.distance_to(dst, now) <= src.transmission_range
        )
        if ok and self._link_fault is not None:
            ok = self._link_fault.link_up(src_id, dst_id, now)
        return ok

    def link_quality(self, src_id: int, dst_id: int, now: float) -> float:
        """Distance-based margin in [0, 1]: 1 adjacent, 0 at range edge.

        REFER's maintenance uses sensed signal strength to predict link
        breakage (Section III-B4); this margin is that signal.
        """
        src, dst = self.node(src_id), self.node(dst_id)
        distance = src.distance_to(dst, now)
        limit = min(src.transmission_range, dst.transmission_range)
        if distance >= limit:
            return 0.0
        quality = 1.0 - distance / limit
        if self._link_fault is not None:
            quality *= self._link_fault.quality_factor(src_id, dst_id, now)
        return quality

    def contention_at(self, node_id: int, now: float) -> int:
        """How many neighbouring radios are currently busy.

        Drives the CSMA backoff model: each busy neighbour adds an
        expected deferral slot.
        """
        return sum(
            1
            for other_id in self.neighbors(node_id, now)
            if self.node(other_id).radio_busy_until > now
        )

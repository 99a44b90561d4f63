"""The shared wireless medium: who can hear whom, right now.

Connectivity is the unit-disk model the paper uses: a transmission
from A reaches B iff their distance is within A's transmission range.
Neighbour queries are frequent (every hop, every probe), so the medium
holds one *position snapshot* per coarse time bucket and serves every
query in the bucket from it; mobility invalidates the snapshot
naturally as time advances.

Query cost is where networks stop scaling: a brute-force scan is O(n)
per query and O(n^2) per bucket.  The snapshot therefore lives in a
:class:`~repro.net.spatial.SpatialHashGrid` (cell side = the median
transmission range among registered nodes, the range most queries
use), which prunes each query to the cells overlapping the query disk.
The grid evaluates the brute-force predicate over the same positions,
so any cell size gives the same neighbours (ascending node id);
:func:`~repro.net.spatial.brute_force_within_range` is the oracle the
tests hold it to.

Link questions (``can_transmit``, ``link_quality`` and their batched
forms ``reachable`` and ``link_margins_each``) are answered from exact
positions at ``now``, one ``hypot`` per pair (:meth:`Node.distance_to`).

``neighbors`` is the discovery-timescale view: who was in mutual range
when the bucket's snapshot was taken (its first neighbour query), with
``usable`` as it was when the node's tuple was first computed in the
bucket.  Floods and candidate gathering share it.  The roll only
*writes* the mobile positions; the grid re-hashes cells the first time
a query in the bucket needs them.

``contention_at`` is a packet-time question, like the frame's own
``reachable``: it runs on every frame and is almost always 0, so the
medium keeps the set of radios that may be busy (a node files itself
when its ``radio_busy_until`` is assigned) and tests those at exact
positions at ``now`` — no snapshot, no neighbour tuple, and no bucket
roll, so the all-walkers refresh runs only in buckets where somebody
asks for a neighbour tuple.  Expired radios leave during the walk, so
time must not run backwards between calls.

Registry mutations (``add_node``) invalidate the neighbour cache
immediately: a node added mid-bucket (e.g. by vertex replacement in
``core/maintenance``) is visible to the very next query, not at the
next bucket boundary.
"""

from __future__ import annotations

import statistics
from math import hypot, inf
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Protocol, Tuple

from repro.errors import NetworkError
from repro.net.node import Node
from repro.net.spatial import SpatialHashGrid
from repro.util.geometry import Point


#: How far past its range a source's :meth:`WirelessMedium.near` list
#: reaches, as a fraction of the range.  A list holds about ``(1 + m)^2``
#: times the destinations in range and lasts ``m * range / (v_src +
#: v_dst)`` seconds: 1.44 times and 3.3 s at 0.2, 100 m and 3 m/s each.
#: The optimum is flat — a ``refer_steady`` repetition makes 743, 274
#: and 214 lists for its 7 920 packets at 0.05, 0.2 and 0.5, and its
#: total call count moves by under 3 % across that range — because a
#: membership change of the cell usually ends a list first.
NEAR_MARGIN = 0.2


class LinkFault(Protocol):
    """A link-level fault process layered onto the medium.

    Implementations (e.g. the Gilbert-Elliott burst model in
    ``repro.chaos``) gate :meth:`WirelessMedium.can_transmit` and scale
    :meth:`WirelessMedium.link_quality` without touching node liveness.
    Both hooks must be pure in ``(src, dst, now)``: the medium asks
    them whenever, as often and in whatever order its callers' questions
    need, skips a question another test already settled, and promises
    no call order.
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
        self._neighbor_cache: Dict[Tuple[int, bool], Tuple[int, ...]] = {}
        self._cache_bucket = -1
        #: The installed fault model (see :meth:`set_link_fault`).
        self.link_fault: Optional[LinkFault] = None
        self._explicit_cell_size = cell_size
        #: The live index, holding the positions every neighbour query
        #: in the current bucket is served from; built at the first one.
        self.spatial_grid: Optional[SpatialHashGrid] = None
        #: Node ids registered but not yet in the grid.
        self._pending_ids: List[int] = []
        #: Node ids whose mobility can change their position.
        self._mobile_ids: List[int] = []
        #: Snapshot refreshes performed (one per bucket plus one per
        #: mid-bucket registry mutation).
        self.refreshes = 0
        #: Nodes whose ``radio_busy_until`` may still lie ahead, by id:
        #: each files itself when its radio is occupied
        #: (:attr:`Node.radio_busy_until`), :meth:`contention_at` drops
        #: the expired, so it holds at most one entry per node.
        self._busy: Dict[int, Node] = {}
        #: What motion between two instants is bounded by: the fastest
        #: registered mobility model (``inf`` once one declares no
        #: ``max_speed``) and the shortest registered range.
        self._speed_bound = 0.0
        self._min_range = inf

    # -- fault hooks ---------------------------------------------------------

    def set_link_fault(self, fault: Optional[LinkFault]) -> None:
        """Install (or clear, with ``None``) a link-level fault model.

        The fault gates frame delivery (:meth:`can_transmit`) and the
        sensed signal margin (:meth:`link_quality`); topology queries
        (:meth:`neighbors`) still see the undegraded unit-disk graph,
        matching how a bursty channel hides from slow-timescale
        neighbour discovery but not from per-frame delivery.
        """
        self.link_fault = fault

    # -- registry ------------------------------------------------------------

    def add_node(self, node: Node) -> None:
        if node.id in self._nodes:
            raise NetworkError(f"duplicate node id {node.id}")
        if node._busy_radios is not None and node._busy_radios is not self._busy:
            # Its radio can file itself with one medium only.
            raise NetworkError(
                f"node {node.id} is registered with another medium"
            )
        self._nodes[node.id] = node
        self._neighbor_cache.clear()  # visible to the very next query
        self._pending_ids.append(node.id)
        # From here on an occupied radio files itself; one occupied
        # before it registered is filed now.
        node._busy_radios = self._busy
        if node.radio_busy_until > 0.0:
            self._busy[node.id] = node
        if not getattr(node.mobility, "is_static", False):
            self._mobile_ids.append(node.id)
        self._speed_bound = max(
            self._speed_bound, getattr(node.mobility, "max_speed", inf)
        )
        self._min_range = min(self._min_range, node.transmission_range)

    def node(self, node_id: int) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NetworkError(f"unknown node id {node_id}") from None

    def _resolve(self, node_ids: Iterable[int]) -> List[Node]:
        try:
            return [self._nodes[node_id] for node_id in node_ids]
        except KeyError as missing:
            raise NetworkError(f"unknown node id {missing.args[0]}") from None

    def nodes(self) -> List[Node]:
        return list(self._nodes.values())

    def node_ids(self) -> List[int]:
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    # -- position snapshot ---------------------------------------------------

    def _auto_cell_size(self) -> float:
        """The median registered range, the radius most queries use
        (at the largest, the actuators' 250 m, a 500 m field is 4 cells)."""
        ranges = [node.transmission_range for node in self._nodes.values()]
        return statistics.median(ranges) if ranges else 1.0

    def _refresh_positions(self, now: float) -> None:
        """Bring the grid's positions to ``now``.

        Static nodes are written once; mobile nodes are moved.
        """
        self.refreshes += 1
        grid = self.spatial_grid
        if grid is None:
            grid = self.spatial_grid = SpatialHashGrid(
                self._explicit_cell_size or self._auto_cell_size()
            )
        nodes = self._nodes
        for node_id in self._pending_ids:
            grid.insert(node_id, nodes[node_id].mobility.position(now))
        self._pending_ids = []
        for node_id in self._mobile_ids:
            grid.move(node_id, nodes[node_id].mobility.position(now))

    def index_stats(self) -> Dict[str, int]:
        """Merged instrumentation: refreshes, grid counters, occupancy."""
        stats: Dict[str, int] = {"refreshes": self.refreshes}
        grid = self.spatial_grid
        if grid is not None:
            occupancy = grid.occupancy()
            stats.update(grid.stats.as_dict())
            stats["occupied_cells"] = occupancy.occupied_cells
            stats["max_per_cell"] = occupancy.max_per_cell
        return stats

    # -- connectivity -------------------------------------------------------

    def neighbors(
        self, node_id: int, now: float, require_usable: bool = True
    ) -> Tuple[int, ...]:
        """IDs of nodes with a bidirectional link to ``node_id``.

        ``require_usable`` filters out failed/dead nodes — pass
        False for topology analysis that should see the whole graph.
        The tuple is in ascending id order, computed against the
        bucket's position snapshot, and is the cached object itself
        until the bucket rolls over or the registry changes.
        """
        bucket = int(now / self._cache_resolution)
        if bucket != self._cache_bucket:
            # The bucket's first neighbour query: its snapshot instant.
            self._neighbor_cache.clear()
            self._cache_bucket = bucket
            self._refresh_positions(now)
        elif self._pending_ids:
            self._refresh_positions(now)  # registered mid-bucket
        key = (node_id, require_usable)
        cached = self._neighbor_cache.get(key)
        if cached is None:
            cached = self._compute_neighbors(node_id, require_usable)
            self._neighbor_cache[key] = cached
        return cached

    def snapshot_covers(self, margin: float) -> bool:
        """Whether every pair whose ``link_quality`` at an instant
        exceeds ``margin`` is a pair of that instant's bucket's
        :meth:`neighbors` tuples (liveness aside).

        Such a pair is within ``(1 - margin) * limit`` of each other,
        ``limit`` being the shorter of its two ranges.  The snapshot is
        less than one ``cache_resolution`` old, and in that time two
        nodes close or open their distance by less than
        ``2 * v_max * cache_resolution``; the pair was within ``limit``
        at the snapshot if that drift is below ``margin * limit`` —
        for any pair, if it is below ``margin`` times the shortest
        registered range (1.5 m against 15 m at the paper's 3 m/s,
        100 m and a 0.15 margin).
        """
        drift = 2.0 * self._speed_bound * self._cache_resolution
        return drift < margin * self._min_range

    def _compute_neighbors(
        self, node_id: int, require_usable: bool
    ) -> Tuple[int, ...]:
        origin = self.node(node_id)
        grid = self.spatial_grid
        nodes = self._nodes
        result: List[int] = []
        for other_id, distance in grid.within_range(
            grid.position_of(node_id), origin.transmission_range
        ):
            if other_id == node_id:
                continue
            other = nodes[other_id]
            if require_usable and not other.usable:
                continue
            if distance <= other.transmission_range:
                result.append(other_id)
        return tuple(result)

    def reachable(
        self, src_id: int, dst_ids: Iterable[int], now: float
    ) -> List[Tuple[int, float]]:
        """``(dst_id, distance)`` for each ``dst`` a src->dst frame
        would reach (liveness + range + link), in the order given.
        """
        src = self.node(src_id)
        dsts = self._resolve(dst_ids)
        out: List[Tuple[int, float]] = []
        if not src.usable:
            return out
        reach = src.transmission_range
        fault = self.link_fault
        here = src.mobility.position(now)
        x, y = here.x, here.y
        for dst in dsts:
            if dst.usable:
                there = dst.mobility.position(now)
                distance = hypot(x - there.x, y - there.y)
                if distance <= reach and (
                    fault is None or fault.link_up(src_id, dst.id, now)
                ):
                    out.append((dst.id, distance))
        return out

    def near(
        self, src_id: int, dst_ids: Iterable[int], now: float
    ) -> Tuple[float, List[int]]:
        """The destinations worth asking :meth:`reachable` about for a
        while: ``(until, ids)`` such that at any ``t`` with ``now <= t
        < until``, ``reachable(src_id, dst_ids, t)`` equals
        ``reachable(src_id, ids, t)``.

        ``ids`` are the ``dst_ids`` within ``(1 + NEAR_MARGIN)`` ranges
        of the source at ``now``, in the order given; ``until`` is when
        the fastest of the others, heading straight for a source
        heading straight for it, could first be in range.  Liveness and
        link faults are not looked at — they are ``reachable``'s to
        read at ``t``.  A mobility model that declares no speed bound
        makes ``until == now``: nothing to keep.
        """
        src = self.node(src_id)
        reach = src.transmission_range
        margin = NEAR_MARGIN * reach
        here = src.mobility.position(now)
        x, y = here.x, here.y
        ids: List[int] = []
        left_out: List[float] = []  # the speed bounds of the others
        for dst in self._resolve(dst_ids):
            there = dst.mobility.position(now)
            if hypot(x - there.x, y - there.y) <= reach + margin:
                ids.append(dst.id)
            else:
                left_out.append(getattr(dst.mobility, "max_speed", inf))
        if not left_out:
            return inf, ids
        closing = max(left_out) + getattr(src.mobility, "max_speed", inf)
        return (now + margin / closing if closing > 0.0 else inf), ids

    def can_transmit(self, src_id: int, dst_id: int, now: float) -> bool:
        """:meth:`reachable` asked about one destination."""
        return bool(self.reachable(src_id, (dst_id,), now))

    def link_quality(self, src_id: int, dst_id: int, now: float) -> float:
        """Distance-based margin in [0, 1]: 1 adjacent, 0 at range edge.

        REFER's maintenance uses sensed signal strength to predict link
        breakage (Section III-B4); this margin is that signal.
        """
        src, dst = self.node(src_id), self.node(dst_id)
        return self._margins(src, (dst,), (None,), now)[0]

    def _margins(self, node, peers, distances, now: float) -> List[float]:
        """The margin of ``node``'s link to each peer; a distance given
        as ``None`` is measured here."""
        reach = node.transmission_range
        fault = self.link_fault
        margins = []
        for peer, distance in zip(peers, distances):
            if distance is None:
                distance = node.distance_to(peer, now)
            limit = min(reach, peer.transmission_range)
            if distance >= limit:
                margins.append(0.0)
            else:
                quality = 1.0 - distance / limit
                if fault is not None:
                    quality *= fault.quality_factor(node.id, peer.id, now)
                margins.append(quality)
        return margins

    def link_margins_each(
        self, node_ids: Iterable[int], peer_ids: Iterable[int], now: float
    ) -> List[Tuple[int, List[float]]]:
        """Each node against the same peers, from one distance per
        pair: a ``(covered, margins)`` per node, in the order given.

        ``covered`` is how many peers have ``can_transmit(peer, node)``
        and ``can_transmit(node, peer)`` both hold; ``margins`` is the
        ``link_quality(node, peer)`` of every peer in the order given.
        The margins are what a caller ranks covered candidates by, so
        when nothing is covered none is computed and the list is empty.

        The peers are resolved once and their liveness, range and
        position read once.
        """
        nodes = self._resolve(node_ids)
        peers = self._resolve(peer_ids)
        peer_reach = [peer.transmission_range for peer in peers]
        #: Where each usable peer is (``None``: it carries no frames).
        peer_at: List[Optional[Point]] = [
            peer.mobility.position(now) if peer.usable else None
            for peer in peers
        ]
        fault = self.link_fault
        out: List[Tuple[int, List[float]]] = []
        for node in nodes:
            covered = 0
            distances: List[Optional[float]] = [None] * len(peers)
            if node.usable:
                node_id = node.id
                reach = node.transmission_range
                here = node.mobility.position(now)
                x, y = here.x, here.y
                for i, peer in enumerate(peers):
                    there = peer_at[i]
                    if there is None:
                        continue
                    distance = hypot(there.x - x, there.y - y)
                    distances[i] = distance
                    if (
                        distance <= peer_reach[i]
                        and (fault is None or fault.link_up(peer.id, node_id, now))
                        and distance <= reach
                        and (fault is None or fault.link_up(node_id, peer.id, now))
                    ):
                        covered += 1
            out.append(
                (covered, self._margins(node, peers, distances, now))
                if covered
                else (0, [])
            )
        return out

    def links_above(
        self,
        node_ids: Iterable[int],
        peer_ids: Iterable[int],
        now: float,
        floor: float,
    ) -> List[Tuple[int, float]]:
        """The nodes that hold *every* peer above ``floor``.

        ``(node_id, weakest margin)``, in the order given, for each
        node of which :meth:`link_margins_each` would say: every peer
        covered, every margin ``> floor``.  The floats are those; but a
        node is dropped at its first peer that fails, nothing is asked
        about the peers after it, and no table of margins is built.
        No peers, no nodes.
        """
        nodes = self._resolve(node_ids)
        peers = self._resolve(peer_ids)
        out: List[Tuple[int, float]] = []
        if not peers or not all(peer.usable for peer in peers):
            return out
        rows = []
        for peer in peers:
            there = peer.mobility.position(now)
            rows.append((peer.id, there.x, there.y, peer.transmission_range))
        fault = self.link_fault
        for node in nodes:
            if not node.usable:
                continue
            node_id = node.id
            reach = node.transmission_range
            here = node.mobility.position(now)
            x, y = here.x, here.y
            weakest = inf
            for peer_id, peer_x, peer_y, peer_reach in rows:
                distance = hypot(peer_x - x, peer_y - y)
                limit = min(reach, peer_reach)
                if distance >= limit:
                    break
                quality = 1.0 - distance / limit
                if fault is not None:
                    quality *= fault.quality_factor(node_id, peer_id, now)
                if quality <= floor or (
                    fault is not None
                    and not (
                        fault.link_up(peer_id, node_id, now)
                        and fault.link_up(node_id, peer_id, now)
                    )
                ):
                    break
                if quality < weakest:
                    weakest = quality
            else:
                out.append((node_id, weakest))
        return out

    def contention_at(self, node_id: int, now: float) -> int:
        """How many radios within mutual range are busy right now.

        Drives the CSMA backoff model: each busy neighbour adds an
        expected deferral slot.  The count is over the usable nodes,
        other than ``node_id``, whose ``radio_busy_until`` is strictly
        after ``now`` and whose distance at ``now`` — exact positions,
        the instant :meth:`reachable` tests the frame itself at — is
        within both transmission ranges.

        Only the filed radios are walked, and those found expired are
        dropped for good: ``now`` must not decrease from one call to
        the next (simulation time does not).
        """
        node = self.node(node_id)
        reach = node.transmission_range
        busy = self._busy
        x = y = None  # the node's own position, read if a radio is busy
        count = 0
        expired = []
        for other in busy.values():
            if other.radio_busy_until <= now:
                expired.append(other.id)
            elif other is not node and other.usable:
                if x is None:
                    here = node.mobility.position(now)
                    x, y = here.x, here.y
                there = other.mobility.position(now)
                distance = hypot(x - there.x, y - there.y)
                if distance <= reach and distance <= other.transmission_range:
                    count += 1
        for other_id in expired:
            del busy[other_id]
        return count

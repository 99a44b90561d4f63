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
use, stretched by :data:`~repro.net.spatial.CELL_SLACK`), and the
medium keeps one *geometry* per snapshot: each node's mutual-range
peers at the snapshot positions, ascending.
:meth:`~repro.net.spatial.SpatialHashGrid.mutual_neighbours` builds it
for a set of ids in one pass over the cells, each pair's distance
computed once; a flood asks for the whole registry with
:meth:`WirelessMedium.survey`, a miss outside any flood for its one id.
The pass evaluates the brute-force predicate over the same positions,
so any cell size gives the same neighbours (``tests/net/oracle.py``
holds it to :func:`~repro.net.spatial.brute_force_within_range`).

Link questions are answered from exact positions at ``now``, one
``hypot`` per pair (the value :meth:`Node.distance_to` returns).
``can_transmit`` asks about one pair and ``reachable`` about many, with
the same tests in the same order; ``link_quality`` is ``link_margins``
asked about one peer, and ``link_margins_each`` is the same margins
for many nodes against one peer list, with coverage counted — so each
question has one formulation, and its batched form is held to it
(``tests/net/test_medium_geometry.py``).

``reachable`` and ``contention_at`` first try to settle a range test
without a read.  A model that declares ``max_speed`` and keeps its last
answer readable (``last_point`` at ``last_now``: the random-waypoint
memo, a static node's fixed point; resolved once, in ``add_node``) is
within ``max_speed * |now - last_now|`` of that answer at ``now``, so
a node farther than ``range + max_speed * |now - last_now| +``
:data:`RANGE_SLACK` from it cannot be in range: it is passed over with
no ``position()`` call and no ``usable`` read.  That is exact — the
full test would have said "out of range" too — and the slack absorbs
the float rounding between the bound and the test.  A model without
either attribute, or never asked (``last_now`` NaN), is always read.
The Kautz overlay's entry scan (one source against 100+ members, about
8 in range) and its floods' long-busy forwarders are what this skips.

``neighbors`` is the discovery-timescale view: who was in mutual range
when the bucket's snapshot was taken (its first neighbour query), with
``usable`` as it was when the node's tuple was first computed in the
bucket — the geometry carries no liveness, a tuple filters it at that
first use.  The filter reads ``usable`` only for the nodes in the
medium's *watch*: a node files its id there when its ``failed`` or
``battery_joules`` is assigned (``add_node`` files one registered failed
or metered), and never leaves.  A node outside it was never failed or
metered, so it is usable unread.  Floods and candidate gathering share
the view; a flood reads the bucket's tuples straight from the mapping
``survey`` returns, and beside them each tuple as an int bitmask (bit
``i`` = node ``i``), made at a flood's first use of the tuple, and each
flood's reception count by the mask of its forwarders, all dropped with
the tuples.  The roll moves every mobile node in the grid
(:meth:`~repro.net.spatial.SpatialHashGrid.move`), which re-files a
node in its new cell at once when it has crossed one.  The cost
boundary: a TTL-limited flood in a fresh bucket pays for the whole
field's geometry.

``contention_at`` is a packet-time question, like the frame's own
``reachable``: it runs on every frame and is almost always 0, so the
medium keeps the set of radios that may be busy (a node files itself
when its ``radio_busy_until`` is assigned) and tests those at exact
positions at ``now`` — no snapshot, no neighbour tuple, and no bucket
roll, so the all-walkers refresh runs only in buckets where somebody
asks for a neighbour tuple.  Expired radios leave during the walk,
before the bound is tried, so time must not run backwards between
calls.

Registry mutations (``add_node``) invalidate the neighbour cache
immediately and the geometry with the positions: a node added
mid-bucket (e.g. by vertex replacement in ``core/maintenance``) is
visible to the very next query, not at the next bucket boundary.
"""

from __future__ import annotations

import statistics
from math import hypot, inf
from types import MappingProxyType
from typing import (
    Any, Dict, Iterable, KeysView, List, Mapping, Optional, Protocol,
    Sequence, Tuple,
)

from repro.errors import NetworkError
from repro.net.node import Node
from repro.net.spatial import CELL_SLACK, SpatialHashGrid
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

#: Metres a range test's bound is widened by before it rules a node
#: out unread (``contention_at``, ``reachable``).  The bound adds
#: ``max_speed * |now - last_now|`` to a range, and each float step
#: between it and the exact test misses by a few ulps of a coordinate,
#: a distance or the bound: the waypoint interpolation (``origin + d *
#: frac``, at most 3 ulps per coordinate), the subtractions and
#: ``hypot`` (1 ulp each) and the bound's own sum.  At 10 km that is
#: about 1e-11 m; 1e-6 m covers fields up to about 10^8 m.
RANGE_SLACK = 1e-6

#: Seconds one position snapshot serves: the neighbour cache's time
#: bucket.
CACHE_RESOLUTION = 0.25

#: Side of the spatial grid's cells, metres; ``None`` sizes them to the
#: median registered range (:meth:`WirelessMedium._auto_cell_size`).
#: Any positive side gives the same neighbours.
CELL_SIZE: Optional[float] = None


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

    def __init__(self) -> None:
        self._nodes: Dict[int, Node] = {}
        #: Read-only ``id -> Node`` view of the registry, for loops over
        #: many nodes that cannot afford a :meth:`node` call each.
        self.node_table: Mapping[int, Node] = MappingProxyType(self._nodes)
        self._cache_resolution = CACHE_RESOLUTION
        #: The bucket's neighbour tuples by node id, each computed at
        #: its first query: filtered by ``usable``, and the whole graph.
        self._usable_tuples: Dict[int, Tuple[int, ...]] = {}
        self._all_tuples: Dict[int, Tuple[int, ...]] = {}
        #: The ``usable`` tuples as int bitmasks (bit ``i`` set for node
        #: ``i``), each made by a flood at its first use of the tuple and
        #: cleared with the tuples, so the bucket's floods share them.
        self._usable_masks: Dict[int, int] = {}
        #: A flood's reception count by the mask of its forwarders, with
        #: the ledger phase it was charged in, cleared with the tuples:
        #: within a bucket the count depends only on which nodes
        #: forwarded, so the bucket's floods share it.
        self._usable_counts: Dict[int, Tuple[Any, Mapping[int, int]]] = {}
        self._cache_bucket = -1
        #: The installed fault model (see :meth:`set_link_fault`).
        self.link_fault: Optional[LinkFault] = None
        self._explicit_cell_size = CELL_SIZE
        #: The live index, holding the positions every neighbour query
        #: in the current bucket is served from; built at the first one.
        self.spatial_grid: Optional[SpatialHashGrid] = None
        #: Node ids registered but not yet in the grid.
        self._pending_ids: List[int] = []
        #: Node ids whose mobility can change their position.
        self._mobile_ids: List[int] = []
        #: Node ids whose range, stretched by ``CELL_SLACK``, exceeds
        #: the grid's cell side (``mutual_neighbours``' ``wide``).
        self._wide_ids: List[int] = []
        #: Each node's mutual-range peers at the snapshot, ascending,
        #: for the nodes a pass has covered since the last refresh.
        self._geometry: Dict[int, List[int]] = {}
        #: Snapshot refreshes performed (one per bucket plus one per
        #: mid-bucket registry mutation).
        self.refreshes = 0
        #: The mobility models that bound where their node is without a
        #: read, by node id: a ``max_speed`` and a readable last answer
        #: (``last_now``, ``last_point``; see
        #: :class:`~repro.net.mobility.MobilityModel`).
        self._recall: Dict[int, Any] = {}
        #: Ids of the nodes whose ``radio_busy_until`` may still lie
        #: ahead, as dict keys (an ordered set): each files itself when
        #: its radio is occupied (:attr:`Node.radio_busy_until`),
        #: :meth:`contention_at` drops the expired.
        self._busy: Dict[int, None] = {}
        #: Ids of every node whose ``failed`` or ``battery_joules`` was
        #: ever written: each files itself (:attr:`Node.failed`),
        #: ``add_node`` files one registered failed or metered, and none
        #: leaves.  A node not here is usable without a read.
        self._watched: Dict[int, None] = {}
        #: Read-only, live view of the watch, for a flood's metered mask.
        self.watched: KeysView[int] = self._watched.keys()
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
        """Register ``node``.  Its id must be a non-negative ``int``, not
        a ``bool`` or another subclass: it is a bit position in a
        flood's masks."""
        node_id = node.id
        if type(node_id) is not int or node_id < 0:
            raise NetworkError(
                f"node id must be a non-negative int, got {node_id!r}"
            )
        if node_id in self._nodes:
            raise NetworkError(f"duplicate node id {node_id}")
        if node._busy_radios is not None and node._busy_radios is not self._busy:
            # Its radio and liveness can file with one medium only.
            raise NetworkError(
                f"node {node.id} is registered with another medium"
            )
        self._nodes[node.id] = node
        self._clear_tuples()  # visible to the very next query
        self._pending_ids.append(node.id)
        # From here on an occupied radio and a liveness write file the
        # node; one occupied, failed or metered before it registered is
        # filed now.
        node._busy_radios = self._busy
        node._watched = self._watched
        if node.radio_busy_until > 0.0:
            self._busy[node.id] = None
        if node.failed or node.battery_joules is not None:
            self._watched[node.id] = None
        mobility = node.mobility
        if not getattr(mobility, "is_static", False):
            self._mobile_ids.append(node.id)
        self._speed_bound = max(
            self._speed_bound, getattr(mobility, "max_speed", inf)
        )
        if hasattr(mobility, "max_speed") and hasattr(mobility, "last_now"):
            self._recall[node.id] = mobility
        self._min_range = min(self._min_range, node.transmission_range)

    def node(self, node_id: int) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NetworkError(f"unknown node id {node_id}") from None

    def resolve(self, node_ids: Iterable[int]) -> List[Node]:
        """The nodes of ``node_ids``, in order (``NetworkError`` on an
        unknown id, before the caller has acted on any of them)."""
        try:
            return [self._nodes[node_id] for node_id in node_ids]
        except KeyError as missing:
            raise NetworkError(f"unknown node id {missing.args[0]}") from None

    def node_ids(self) -> List[int]:
        return list(self._nodes)

    # -- position snapshot ---------------------------------------------------

    def _auto_cell_size(self) -> float:
        """The median registered range, the radius most queries use
        (at the largest, the actuators' 250 m, a 500 m field is 4 cells),
        stretched by :data:`~repro.net.spatial.CELL_SLACK` so that a
        node of the median range is not wide."""
        ranges = [node.transmission_range for node in self._nodes.values()]
        if not ranges:
            return 1.0
        return statistics.median(ranges) * (1.0 + CELL_SLACK)

    def _refresh_positions(self, now: float) -> None:
        """Bring the grid's positions to ``now``, dropping the geometry
        of the old ones.

        Static nodes are written once; mobile nodes are moved.
        """
        self.refreshes += 1
        self._geometry = {}
        grid = self.spatial_grid
        if grid is None:
            grid = self.spatial_grid = SpatialHashGrid(
                self._explicit_cell_size or self._auto_cell_size()
            )
        nodes = self._nodes
        for node_id in self._pending_ids:
            node = nodes[node_id]
            grid.insert(node_id, node.mobility.position(now))
            reach = node.transmission_range * (1.0 + CELL_SLACK)
            if reach > grid.cell_size:
                self._wide_ids.append(node_id)
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
        if bucket != self._cache_bucket or self._pending_ids:
            self._roll(bucket, now)
        cache = self._usable_tuples if require_usable else self._all_tuples
        cached = cache.get(node_id)
        if cached is None:
            cached = cache[node_id] = self._compute_neighbors(
                node_id, require_usable
            )
        return cached

    def survey(
        self, now: float
    ) -> Tuple[
        Mapping[int, Tuple[int, ...]],
        Dict[int, int],
        Dict[int, Tuple[Any, Mapping[int, int]]],
    ]:
        """Compute the geometry of every registered node in ``now``'s
        bucket, in one pass over the grid (once per bucket: a flood
        about to ask for many neighbour tuples calls it first).

        Liveness is not read here: each tuple still filters by
        ``usable`` at its first :meth:`neighbors` call.  Returned: the
        bucket's ``usable``-filtered tuples by node id, those asked for
        so far — what ``neighbors(node_id, now)`` answers for an id it
        holds, until time or the registry moves — and the bucket's
        masks of those tuples by node id and its reception counts, both
        for the caller to fill.  A flood reads its forwarders' tuples
        there, asks :meth:`neighbors` on a miss, files a tuple's mask at
        its first use and a count at the first flood through its set of
        forwarders.
        """
        bucket = int(now / self._cache_resolution)
        if bucket != self._cache_bucket or self._pending_ids:
            self._roll(bucket, now)
        geometry = self._geometry
        if len(geometry) < len(self._nodes):
            missing = [i for i in self._nodes if i not in geometry]
            geometry.update(self.spatial_grid.mutual_neighbours(
                missing, self._nodes, self._wide_ids
            ))
        return self._usable_tuples, self._usable_masks, self._usable_counts

    def _clear_tuples(self) -> None:
        self._usable_tuples.clear()
        self._all_tuples.clear()
        self._usable_masks.clear()
        self._usable_counts.clear()

    def _roll(self, bucket: int, now: float) -> None:
        """Refresh the snapshot for ``now`` (in ``bucket``)."""
        if bucket != self._cache_bucket:
            # The bucket's first neighbour query: its snapshot instant.
            self._clear_tuples()
            self._cache_bucket = bucket
        self._refresh_positions(now)  # the roll, or registered mid-bucket

    def snapshot_covers(self, margin: float) -> bool:
        """Whether every pair whose ``link_quality`` at an instant
        exceeds ``margin`` is a pair of that instant's bucket's
        :meth:`neighbors` tuples (liveness aside).

        Such a pair is within ``(1 - margin) * limit`` of each other,
        ``limit`` being the shorter of its two ranges.  The snapshot is
        less than one :data:`CACHE_RESOLUTION` old, and in that time
        two nodes close or open their distance by less than
        ``2 * v_max * CACHE_RESOLUTION``; the pair was within ``limit``
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
        peers = self._geometry.get(node_id)
        if peers is None:
            self.node(node_id)  # NetworkError on an unknown id
            peers = self.spatial_grid.mutual_neighbours(
                (node_id,), self._nodes, self._wide_ids
            )[node_id]
            self._geometry[node_id] = peers
        watched = self._watched
        if require_usable and watched:
            nodes = self._nodes
            return tuple([
                peer for peer in peers
                if peer not in watched or nodes[peer].usable
            ])
        return tuple(peers)

    def reachable(
        self, src_id: int, dst_ids: Iterable[int], now: float
    ) -> List[Tuple[int, float]]:
        """``(dst_id, distance)`` for each ``dst`` a src->dst frame
        would reach (liveness + range + link), in the order given.

        A destination whose model's last answer and speed bound already
        place it out of range is passed over unread (see the module
        docstring).
        """
        src = self.node(src_id)
        dsts = self.resolve(dst_ids)
        out: List[Tuple[int, float]] = []
        if not src.usable:
            return out
        reach = src.transmission_range
        limit = reach + RANGE_SLACK
        recall = self._recall
        fault = self.link_fault
        x, y = src.mobility.position(now)
        for dst in dsts:
            model = recall.get(dst.id)
            if model is not None:
                last_x, last_y = model.last_point
                elapsed = now - model.last_now
                if elapsed < 0.0:
                    elapsed = -elapsed
                if hypot(x - last_x, y - last_y) > (
                    limit + model.max_speed * elapsed
                ):
                    continue  # even at full speed it is out of range
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
        for dst in self.resolve(dst_ids):
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
        """:meth:`reachable` asked about one destination: its tests in
        its order (both ids known, both ends usable, the distance within
        the source's range, the link up), for the one pair."""
        src, dst = self.node(src_id), self.node(dst_id)
        if not (src.usable and dst.usable):
            return False
        here = src.mobility.position(now)
        there = dst.mobility.position(now)
        fault = self.link_fault
        return hypot(
            here.x - there.x, here.y - there.y
        ) <= src.transmission_range and (
            fault is None or fault.link_up(src_id, dst_id, now)
        )

    def link_quality(self, src_id: int, dst_id: int, now: float) -> float:
        """Distance-based margin in [0, 1]: 1 adjacent, 0 at range edge.

        REFER's maintenance uses sensed signal strength to predict link
        breakage (Section III-B4); this margin is that signal.  It is
        :meth:`link_margins` asked about one peer.
        """
        return self.link_margins(src_id, (dst_id,), now)[0]

    def link_margins(
        self, src_id: int, peer_ids: Iterable[int], now: float
    ) -> List[float]:
        """``link_quality(src_id, peer, now)`` for each peer, in the
        order given: the source resolved and placed once."""
        src = self.node(src_id)
        peers = self.resolve(peer_ids)
        here = src.mobility.position(now)
        x, y = here.x, here.y
        distances = []
        for peer in peers:
            there = peer.mobility.position(now)
            distances.append(hypot(x - there.x, y - there.y))
        return self.link_margins_at(src, peers, distances, now)

    def link_margins_at(
        self,
        node: Node,
        peers: Sequence[Node],
        distances: Iterable[Optional[float]],
        now: float,
    ) -> List[float]:
        """The margin of ``node``'s link to each peer, at the distance
        given for it; ``None`` is measured here.

        The one margin formula every question above asks.  A caller
        that holds the distances already — :meth:`reachable`'s, for the
        pairs it returns — gets ``link_quality(node.id, peer.id, now)``
        for each without a position read: ``hypot`` of the negated
        differences is ``hypot`` of the differences, so the distance
        from either end is the same float.  The fault factor is asked
        with ``node`` first.
        """
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
        nodes = self.resolve(node_ids)
        peers = self.resolve(peer_ids)
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
                (covered, self.link_margins_at(node, peers, distances, now))
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
        nodes = self.resolve(node_ids)
        peers = self.resolve(peer_ids)
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
        the next (simulation time does not).  A live radio whose model's
        last answer and speed bound already place it out of range is
        passed over unread (see the module docstring).
        """
        node = self.node(node_id)
        reach = node.transmission_range
        limit = reach + RANGE_SLACK
        busy = self._busy
        nodes = self._nodes
        recall = self._recall
        x = y = None  # the node's own position, read if a radio is busy
        count = 0
        expired = []
        for other_id in busy:
            other = nodes[other_id]
            if other._radio_busy_until <= now:
                expired.append(other_id)
                continue
            if other is node:
                continue
            if x is None:
                x, y = node.mobility.position(now)
            model = recall.get(other_id)
            if model is not None:
                last_x, last_y = model.last_point
                elapsed = now - model.last_now
                if elapsed < 0.0:
                    elapsed = -elapsed
                if hypot(x - last_x, y - last_y) > (
                    limit + model.max_speed * elapsed
                ):
                    continue  # even at full speed it is out of range
            if other.usable:
                there = other.mobility.position(now)
                distance = hypot(x - there.x, y - there.y)
                if distance <= reach and distance <= other.transmission_range:
                    count += 1
        for other_id in expired:
            del busy[other_id]
        return count

"""The Kautz graph embedding protocol (Section III-B).

Two stages, exactly as the paper describes:

**Actuator ID assignment** — actuators exchange neighbour information,
the actuator with the minimum consistent hash of its address becomes
the *starting server*, cells (triangles) get CIDs, and actuators get
KIDs by sequential vertex colouring of the "shares a cell" graph,
mapped onto the three rotation KIDs 012 / 120 / 201.  An actuator
keeps the same KID in every cell it belongs to.

**Sensor ID assignment** — per cell, each actuator issues a TTL=2 path
query toward its successor actuator (KID = left rotation); the
successor picks the 2-hop sensor path with the highest accumulated
energy and assigns the intermediate KIDs by the shift rule.  Then the
sensor-sensor path S_i -> S_j (S_i the successor of the smallest
actuator KID, S_j the predecessor of the largest) assigns two more
KIDs.  Every vertex left — the final KID of K(2, 3), and the rest of a
larger graph (an extension beyond the paper, used by the
parameter-sweep benches) — goes to the sensor that carries the most of
its placed Kautz edges, most-constrained vertex first.

A Kautz edge u -> v is asked about one way only: can u's frame reach
v (``can_transmit``, the sender's range), at the build instant.

All query/reply/notification traffic is charged to the CONSTRUCTION
energy ledger through the network's flood and charge primitives.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import EmbeddingError
from repro.core.cell import EmbeddedCell
from repro.kautz.coloring import sequential_coloring
from repro.kautz.graph import KautzGraph
from repro.kautz.namespace import overlap
from repro.kautz.strings import KautzString
from repro.net.medium import RANGE_SLACK
from repro.net.network import WirelessNetwork
from repro.telemetry.registry import Registry
from repro.telemetry.views import StatsView, counter_field, gauge_field
from repro.util.geometry import Point, centroid
from repro.util.hashing import consistent_hash
from repro.wsan.deployment import DeploymentPlan


def rotation_kids(degree: int) -> List[KautzString]:
    """The three actuator KIDs 012, 120, 201 for K(degree, 3)."""
    if degree < 2:
        raise EmbeddingError("cell embedding needs degree >= 2 (3 actuators)")
    return [
        KautzString((0, 1, 2), degree),
        KautzString((1, 2, 0), degree),
        KautzString((2, 0, 1), degree),
    ]


def connection_path(
    start: KautzString, end: KautzString
) -> List[KautzString]:
    """The length-k KID path ``start -> ... -> end`` used by the embedding.

    At every hop the next KID maximises the overlap with ``end``
    without arriving early ("the letter that makes it close to the
    successor actuator's KID"), so the path spans exactly k hops and
    reproduces the paper's example paths, e.g. 201 -> 010 -> 101 -> 012.
    """
    k = start.k
    path = [start]
    current = start
    for step in range(k):
        if step == k - 1:
            if end not in current.successors():
                raise EmbeddingError(
                    f"connection path {start}->{end} cannot close"
                )
            current = end
        else:
            candidates = [
                s
                for s in current.successors()
                if s != end and s not in path
            ]
            if not candidates:
                raise EmbeddingError(
                    f"connection path {start}->{end} stuck at {current}"
                )
            current = max(
                candidates, key=lambda s: (overlap(s, end), s.letters)
            )
        path.append(current)
    return path


def sensor_bridge_endpoints(
    degree: int,
) -> Tuple[KautzString, KautzString, KautzString]:
    """(S_i, S_j, last) KIDs of the sensor-sensor assignment step.

    With the smallest actuator KID u = u1 u2 u3 = 012:
    S_i = u2 u3 u2 = 121 (successor of the smallest actuator KID),
    S_j = u1 u3 u1 = 020 (predecessor of the largest actuator KID),
    last = u1 u3 u2 = 021 (the final unassigned vertex for d = 2).
    """
    u1, u2, u3 = 0, 1, 2
    return (
        KautzString((u2, u3, u2), degree),
        KautzString((u1, u3, u1), degree),
        KautzString((u1, u3, u2), degree),
    )


class EmbeddingStats(StatsView):
    """What the protocol did, for tests and the construction bench.

    Counters live as ``embedding_*`` registry metrics;
    ``actuator_colors`` is a plain payload (a mapping, not a number).
    """

    _group = "embedding"

    starting_server = gauge_field("elected starting server", default=-1)
    path_queries = counter_field("TTL=2 path queries issued")
    fallback_selections = counter_field("degraded path selections")

    def __init__(self, registry: Optional[Registry] = None) -> None:
        super().__init__(registry)
        self.actuator_colors: Dict[int, int] = {}


class EmbeddingProtocol:
    """Embeds a K(degree, 3) graph into every cell of a deployment."""

    def __init__(
        self,
        network: WirelessNetwork,
        plan: DeploymentPlan,
        rng: random.Random,
        degree: int = 2,
    ) -> None:
        self.network = network
        self.plan = plan
        self.rng = rng
        # The paper's embedding protocol targets K(d, 3) cells.
        self.graph = KautzGraph(degree, 3)
        self.stats = EmbeddingStats(registry=network.registry)
        self._claimed: set = set()   # sensors already embedded somewhere
        #: Each sensor's cell at the instant it was last located
        #: (``(now, [(node_id, cid), ...])``; see :meth:`_cell_pool`).
        self._sensor_cells: Optional[
            Tuple[float, List[Tuple[int, int]]]
        ] = None

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------

    def run(self) -> List[EmbeddedCell]:
        """Execute both stages; returns one EmbeddedCell per plan cell."""
        colors = self._assign_actuator_ids()
        cells = []
        for cell_spec in self.plan.cells:
            cell = EmbeddedCell(cell_spec.cid, self.graph)
            self._assign_cell_actuators(cell, cell_spec, colors)
            self._assign_cell_sensors(cell, cell_spec)
            cells.append(cell)
        return cells

    # ------------------------------------------------------------------
    # stage 1: actuator ID assignment
    # ------------------------------------------------------------------

    def _actuator_address(self, actuator_id: int) -> str:
        return f"actuator-{actuator_id}"

    def _assign_actuator_ids(self) -> Dict[int, int]:
        """Elect the starting server, colour actuators, charge traffic."""
        actuators = list(range(self.plan.actuator_count))
        if not actuators:
            raise EmbeddingError("deployment has no actuators")
        # Neighbouring actuators exchange their neighbour lists + H(A):
        # one broadcast per actuator, received by every actuator in range.
        now = self.network.sim.now
        for a in actuators:
            self.network.charge_tx(a, "control")
            for b in actuators:
                if a != b and self.network.medium.can_transmit(a, b, now):
                    self.network.charge_rx(b, "control")
        server = min(
            actuators,
            key=lambda a: consistent_hash(self._actuator_address(a)),
        )
        self.stats.starting_server = server
        # Sequential vertex colouring on the shares-a-cell adjacency.
        adjacency: Dict[int, List[int]] = {a: [] for a in actuators}
        for cell in self.plan.cells:
            tri = cell.actuator_indices
            for x in tri:
                for y in tri:
                    if x != y and y not in adjacency[x]:
                        adjacency[x].append(y)
        order = sorted(
            actuators,
            key=lambda a: consistent_hash(self._actuator_address(a)),
        )
        colors = sequential_coloring(adjacency, order=order)
        if max(colors.values(), default=0) > 2:
            raise EmbeddingError(
                "actuator layout needs more than 3 KID colours; "
                "triangulation is not 3-colourable"
            )
        self.stats.actuator_colors = colors
        # The starting server disseminates IDs: one network-wide flood
        # (depth-first notification reaching every node of every cell).
        self.network.flood(server, ttl=64, size_bytes=32)
        return colors

    def _assign_cell_actuators(
        self,
        cell: EmbeddedCell,
        cell_spec,
        colors: Dict[int, int],
    ) -> None:
        kids = rotation_kids(self.graph.degree)
        for actuator_id in cell_spec.actuator_indices:
            cell.assign(kids[colors[actuator_id]], actuator_id, actuator=True)

    # ------------------------------------------------------------------
    # stage 2: sensor ID assignment
    # ------------------------------------------------------------------

    def _cell_pool(self, cell_spec) -> List[int]:
        """Usable, unclaimed sensors currently located in this cell."""
        now = self.network.sim.now
        if self._sensor_cells is None or self._sensor_cells[0] != now:
            self._sensor_cells = (now, self._locate_sensors(now))
        table = self.network.medium.node_table
        cid = cell_spec.cid
        return [
            node_id
            for node_id, at in self._sensor_cells[1]
            if at == cid
            and node_id not in self._claimed
            and table[node_id].usable
        ]

    def _locate_sensors(self, now: float) -> List[Tuple[int, int]]:
        """``(node_id, cid)`` of every sensor's cell at ``now``, by id:
        what each cell's pool is drawn from at one build instant."""
        base = self.plan.actuator_count
        sensors = self.network.medium.resolve(
            range(base, base + self.plan.sensor_count)
        )
        cell_of_point = self.plan.cell_of_point
        return [
            (node.id, cell_of_point(node.position(now)).cid)
            for node in sensors
        ]

    def _assign_cell_sensors(self, cell: EmbeddedCell, cell_spec) -> None:
        pool = self._cell_pool(cell_spec)
        # (a) actuator -> successor-actuator paths.
        for kid in sorted(cell.actuator_kids, key=lambda x: x.letters):
            succ_kid = kid.left_rotated()
            kid_path = connection_path(kid, succ_kid)
            self._realise_path(cell, kid_path, pool)
        # (b) the sensor-sensor bridge.
        s_i, s_j, _ = sensor_bridge_endpoints(self.graph.degree)
        self._realise_path(cell, connection_path(s_i, s_j), pool)
        # (c) every other vertex, the one with the most placed
        # neighbours first (graph order among equals): K(2, 3)'s last
        # KID, and the rest of K(d, 3) for d > 2 (extension).
        unassigned = cell.unassigned_kids()
        while unassigned:
            kid = max(
                unassigned,
                key=lambda k: sum(
                    map(cell.kid_assigned, cell.kautz_neighbors_of(k))
                ),
            )
            self._place_vertex(cell, kid, pool)
            unassigned.remove(kid)

    def _realise_path(
        self,
        cell: EmbeddedCell,
        kid_path: Sequence[KautzString],
        pool: List[int],
    ) -> None:
        """Pick physical sensors for the interior KIDs of ``kid_path``.

        Charges one TTL=2 flood (the path query) plus the reply and
        assignment unicasts.  Endpoint KIDs must already be assigned.
        """
        start_node = cell.node_of(kid_path[0])
        end_node = cell.node_of(kid_path[-1])
        interior = list(kid_path[1:-1])
        already = [cell.kid_assigned(kid) for kid in interior]
        if all(already):
            return
        self.stats.path_queries += 1
        self.network.flood(start_node, ttl=2, size_bytes=48)
        chosen = self._select_two_hop(start_node, end_node, pool)
        for kid, node_id in zip(interior, chosen):
            cell.assign(kid, node_id)
            self._claim(node_id, pool)
        # Reply + ID-assignment messages travel back along the path.
        self._charge_chain([end_node] + list(reversed(chosen)) + [start_node])

    def _select_two_hop(
        self, start_node: int, end_node: int, pool: List[int]
    ) -> Tuple[int, int]:
        """The (s1, s2) pair realising start -> s1 -> s2 -> end.

        Primary criterion is the paper's: highest accumulated battery
        energy along the path; ties (fresh deployments have full
        batteries) break toward the strongest weakest-link so the
        embedded edges survive mobility longest.  The answer is the
        reachable pair with the greatest key

            (battery1 + battery2, min(quality1, quality12, quality2),
             -s1, -s2)

        found without asking about every pair: whatever ``quality12``
        turns out to be, the key is at most its *bound*, the same tuple
        with ``min(quality1, quality2)`` in second place, and the bound
        needs nothing but what each end contributes alone.  The medium
        is asked only about pairs whose bound can still reach the best
        key found so far, and not about a pair the triangle inequality
        already places out of range: s1 -> s2 spans at least
        ``|start end| - |start s1| - |s2 end|``.
        """
        now = self.network.sim.now
        medium = self.network.medium
        table = medium.node_table
        margins_at = medium.link_margins_at
        end = table[end_node]
        apart = table[start_node].distance_to(end, now)
        # What each end contributes — its battery and the margin of its
        # link to the endpoint — is asked once per sensor.  Every margin
        # is ``link_quality``'s of the edge in its forwarding direction.
        reached = medium.reachable(start_node, pool, now)
        s1_nodes = [table[s1] for s1, _ in reached]
        distances1 = [d for _, d in reached]
        start_side = sorted(
            zip(
                [node.battery_fraction for node in s1_nodes],
                margins_at(table[start_node], s1_nodes, distances1, now),
                [-s1 for s1, _ in reached],
                distances1,
            ),
            reverse=True,
        )
        # The end side is the sensors that can send to the endpoint.
        end_side: Dict[int, Tuple[float, float, float]] = {}
        by_battery: Dict[float, List[Tuple[float, int]]] = {}
        for s2 in pool:
            if not medium.can_transmit(s2, end_node, now):
                continue
            node2 = table[s2]
            battery2 = node2.battery_fraction
            distance2 = node2.distance_to(end, now)
            quality2 = margins_at(node2, (end,), (distance2,), now)[0]
            end_side[s2] = (battery2, quality2, distance2)
            by_battery.setdefault(battery2, []).append((-quality2, s2))
        # The end side in runs of equal battery, fullest first; inside
        # a run the bound falls with quality2 and then with rising id,
        # so what can still win is always a prefix.
        runs: List[Tuple[float, Tuple[float, ...], Tuple[int, ...]]] = []
        for battery2 in sorted(by_battery, reverse=True):
            falling, ids = zip(*sorted(by_battery[battery2]))
            runs.append((battery2, falling, ids))
        best: Optional[Tuple[float, float, int, int]] = None
        for battery1, quality1, minus_s1, distance1 in start_side:
            candidates: List[int] = []
            for battery2, falling, ids in runs:
                cut = len(ids)
                if best is not None:
                    battery = battery1 + battery2
                    if battery < best[0]:
                        break   # and every later run holds less still
                    if battery == best[0]:
                        # best[2] came from an earlier s1, never this
                        # one, so the id decides who takes a tie on
                        # quality for the whole run at once.
                        if minus_s1 > best[2] and quality1 >= best[1]:
                            cut = bisect_right(falling, -best[1])
                        elif quality1 > best[1]:
                            cut = bisect_left(falling, -best[1])
                        else:
                            cut = 0
                candidates += ids[:cut]
            s1 = -minus_s1
            nearest = (
                apart - distance1 - table[s1].transmission_range - RANGE_SLACK
            )
            candidates = [
                s2 for s2 in candidates
                if s2 != s1 and end_side[s2][2] >= nearest
            ]
            if not candidates:
                continue
            walked = medium.reachable(s1, candidates, now)
            qualities = margins_at(
                table[s1],
                [table[s2] for s2, _ in walked],
                [d for _, d in walked],
                now,
            )
            for (s2, _), quality12 in zip(walked, qualities):
                battery2, quality2, _ = end_side[s2]
                key = (
                    battery1 + battery2,
                    min(quality1, quality12, quality2),
                    minus_s1,
                    -s2,
                )
                if best is None or key > best:
                    best = key
        if best is not None:
            return (-best[2], -best[3])
        # Fallback: geometric placement nearest the ideal relay points.
        self.stats.fallback_selections += 1
        return self._geometric_pair(start_node, end_node, pool)

    def _global_spares(self, pool: List[int]) -> List[int]:
        """Unclaimed usable sensors outside ``pool`` (sparse fallback).

        Sparse deployments (the paper's future-work case) can leave a
        cell with fewer free sensors than K(d, 3) vertices; the
        embedding then borrows the nearest unclaimed sensors from
        neighbouring regions rather than failing outright.
        """
        base = self.plan.actuator_count
        in_pool = set(pool)
        return [
            base + j
            for j in range(self.plan.sensor_count)
            if (base + j) not in self._claimed
            and (base + j) not in in_pool
            and self.network.node(base + j).usable
        ]

    def _geometric_pair(
        self, start_node: int, end_node: int, pool: List[int]
    ) -> Tuple[int, int]:
        if len(pool) < 2:
            pool = pool + self._global_spares(pool)
        if len(pool) < 2:
            raise EmbeddingError(
                "not enough sensors in the network to embed a Kautz path"
            )
        now = self.network.sim.now
        a = self.network.node(start_node).position(now)
        b = self.network.node(end_node).position(now)
        third = a.toward(b, a.distance_to(b) / 3.0)
        two_thirds = a.toward(b, 2.0 * a.distance_to(b) / 3.0)
        s1 = min(
            pool,
            key=lambda s: self.network.node(s).position(now).distance_to(third),
        )
        s2 = min(
            (s for s in pool if s != s1),
            key=lambda s: self.network.node(s)
            .position(now)
            .distance_to(two_thirds),
        )
        return s1, s2

    def _place_vertex(
        self, cell: EmbeddedCell, kid: KautzString, pool: List[int]
    ) -> None:
        """Place ``kid`` on the sensor that carries most of its placed
        Kautz edges.

        Each in-edge p -> kid and out-edge kid -> q whose other end is
        placed is asked in its own direction.  The pick has the greatest
        ``(edges carried, battery, weakest carried margin, -id)``; one
        that carries none is a fallback, and the sensor nearest the
        placed neighbours' centroid takes the KID instead.
        """
        now = self.network.sim.now
        medium = self.network.medium
        if not pool:
            pool = self._global_spares(pool)
        if not pool:
            raise EmbeddingError(f"no sensors left to assign {kid}")
        senders = [
            cell.node_of(p) for p in kid.predecessors() if cell.kid_assigned(p)
        ]
        receivers = [
            cell.node_of(q) for q in kid.successors() if cell.kid_assigned(q)
        ]

        def rank(s: int) -> Tuple[int, float, float, int]:
            edges = [(p, s) for p in senders] + [(s, q) for q in receivers]
            margins = [
                medium.link_quality(u, v, now)
                for u, v in edges
                if medium.can_transmit(u, v, now)
            ]
            battery = medium.node_table[s].battery_fraction
            return (len(margins), battery, min(margins, default=0.0), -s)

        def at(node_id: int) -> Point:
            return self.network.node(node_id).position(now)

        chosen = max(pool, key=rank)
        neighbors = list(dict.fromkeys(receivers + senders))
        if not rank(chosen)[0]:
            self.stats.fallback_selections += 1
            mid = centroid(map(at, neighbors))
            chosen = min(pool, key=lambda s: at(s).distance_to(mid))
        cell.assign(kid, chosen)
        self._claim(chosen, pool)
        self._charge_chain([neighbors[0], chosen])

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _claim(self, node_id: int, pool: List[int]) -> None:
        self._claimed.add(node_id)
        if node_id in pool:
            pool.remove(node_id)

    def _charge_chain(self, node_chain: Sequence[int]) -> None:
        """Charge a unicast control chain hop-by-hop (tx + rx each hop)."""
        for a, b in zip(node_chain, node_chain[1:]):
            self.network.charge_tx(a, "control")
            self.network.charge_rx(b, "control")

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
KIDs, and the common neighbour of those two nodes with the highest
battery takes the final KID.  For K(2, 3) this covers all 12 vertices;
for larger graphs a generic fill-in loop (an extension beyond the
paper, used by the parameter-sweep benches) assigns the remainder by
greatest-constraint-first placement.

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
from repro.net.network import WirelessNetwork
from repro.telemetry.registry import Registry
from repro.telemetry.views import StatsView, counter_field, gauge_field
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
    generic_fill_assignments = counter_field("fill-in loop assignments")

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
        diameter: int = 3,
    ) -> None:
        if diameter != 3:
            raise EmbeddingError(
                "the paper's embedding protocol targets K(d, 3) cells"
            )
        self.network = network
        self.plan = plan
        self.rng = rng
        self.graph = KautzGraph(degree, diameter)
        self.stats = EmbeddingStats(registry=network.registry)
        self._claimed: set = set()   # sensors already embedded somewhere

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
            self.network.charge_control_tx(a)
            for b in actuators:
                if a != b and self.network.medium.can_transmit(a, b, now):
                    self.network.charge_control_rx(b)
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
        base = self.plan.actuator_count
        pool = []
        for j in range(self.plan.sensor_count):
            node_id = base + j
            if node_id in self._claimed:
                continue
            node = self.network.node(node_id)
            if not node.usable:
                continue
            if self.plan.cell_of_point(node.position(now)).cid == cell_spec.cid:
                pool.append(node_id)
        return pool

    def _assign_cell_sensors(self, cell: EmbeddedCell, cell_spec) -> None:
        pool = self._cell_pool(cell_spec)
        # (a) actuator -> successor-actuator paths.
        for kid in sorted(cell.actuator_kids, key=lambda x: x.letters):
            succ_kid = kid.left_rotated()
            kid_path = connection_path(kid, succ_kid)
            self._realise_path(cell, kid_path, pool)
        # (b) the sensor-sensor bridge.
        s_i, s_j, last_kid = sensor_bridge_endpoints(self.graph.degree)
        bridge = connection_path(s_i, s_j)
        self._realise_path(cell, bridge, pool)
        # (c) the final vertex: common neighbour of the bridge sensors.
        if not cell.kid_assigned(last_kid):
            self._assign_common_neighbor(cell, bridge, last_kid, pool)
        # (d) generic fill-in for K(d, 3) with d > 2 (extension).
        for kid in cell.unassigned_kids():
            self._generic_assign(cell, kid, pool)

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
        key found so far.
        """
        now = self.network.sim.now
        medium = self.network.medium
        # What each end contributes — its battery and the margin of its
        # link to the endpoint — is asked once per sensor.
        start_side = sorted(
            (
                (
                    medium.node(s1).battery_fraction,
                    medium.link_quality(start_node, s1, now),
                    -s1,
                )
                for s1, _ in medium.reachable(start_node, pool, now)
            ),
            reverse=True,
        )
        end_side: Dict[int, Tuple[float, float]] = {}
        by_battery: Dict[float, List[Tuple[float, int]]] = {}
        for s2, _ in medium.reachable(end_node, pool, now):
            battery2 = medium.node(s2).battery_fraction
            quality2 = medium.link_quality(s2, end_node, now)
            end_side[s2] = (battery2, quality2)
            by_battery.setdefault(battery2, []).append((-quality2, s2))
        # The end side in runs of equal battery, fullest first; inside
        # a run the bound falls with quality2 and then with rising id,
        # so what can still win is always a prefix.
        runs: List[Tuple[float, Tuple[float, ...], Tuple[int, ...]]] = []
        for battery2 in sorted(by_battery, reverse=True):
            falling, ids = zip(*sorted(by_battery[battery2]))
            runs.append((battery2, falling, ids))
        best: Optional[Tuple[float, float, int, int]] = None
        for battery1, quality1, minus_s1 in start_side:
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
            if s1 in end_side and s1 in candidates:
                candidates.remove(s1)
            if not candidates:
                continue
            for s2, _ in medium.reachable(s1, candidates, now):
                battery2, quality2 = end_side[s2]
                key = (
                    battery1 + battery2,
                    min(quality1, medium.link_quality(s1, s2, now), quality2),
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

    def _assign_common_neighbor(
        self,
        cell: EmbeddedCell,
        bridge: Sequence[KautzString],
        last_kid: KautzString,
        pool: List[int],
    ) -> None:
        """The highest-battery common neighbour of the two bridge sensors."""
        now = self.network.sim.now
        medium = self.network.medium
        n1 = cell.node_of(bridge[1])
        n2 = cell.node_of(bridge[2])
        near_n1 = [s for s, _ in medium.reachable(n1, pool, now)]
        candidates = [s for s, _ in medium.reachable(n2, near_n1, now)]
        if candidates:
            chosen = max(
                candidates,
                key=lambda s: (
                    medium.node(s).battery_fraction,
                    min(
                        medium.link_quality(n1, s, now),
                        medium.link_quality(n2, s, now),
                    ),
                    -s,
                ),
            )
        else:
            self.stats.fallback_selections += 1
            mid = self.network.node(n1).position(now).midpoint(
                self.network.node(n2).position(now)
            )
            remaining = list(pool) or self._global_spares(pool)
            if not remaining:
                raise EmbeddingError("no sensor left for the final KID")
            chosen = min(
                remaining,
                key=lambda s: self.network.node(s).position(now).distance_to(mid),
            )
        cell.assign(last_kid, chosen)
        self._claim(chosen, pool)
        self._charge_chain([n1, chosen])

    def _generic_assign(
        self, cell: EmbeddedCell, kid: KautzString, pool: List[int]
    ) -> None:
        """Extension: place one KID next to its already-assigned neighbours."""
        now = self.network.sim.now
        medium = self.network.medium
        assigned_neighbors = [
            cell.node_of(nb)
            for nb in cell.kautz_neighbors_of(kid)
            if cell.kid_assigned(nb)
        ]
        self.stats.generic_fill_assignments += 1
        if not pool:
            pool = self._global_spares(pool)
        if not pool:
            raise EmbeddingError(f"no sensors left to assign {kid}")
        if assigned_neighbors:
            in_range = pool
            for nb in assigned_neighbors:
                in_range = [s for s, _ in medium.reachable(nb, in_range, now)]
            candidates = in_range or pool
            anchor = self.network.node(assigned_neighbors[0]).position(now)
        else:
            candidates = pool
            anchor = self.plan.cells[0].centroid
        chosen = min(
            candidates,
            key=lambda s: self.network.node(s).position(now).distance_to(anchor),
        )
        cell.assign(kid, chosen)
        self._claim(chosen, pool)
        if assigned_neighbors:
            self._charge_chain([assigned_neighbors[0], chosen])

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
            self.network.charge_control_tx(a)
            self.network.charge_control_rx(b)

"""Greedy shortest routing and REFER's fault-tolerant hop-by-hop router.

The *greedy shortest protocol* (Section III-C1) forwards to the
successor whose suffix shares the most digits with the destination.
:class:`FaultTolerantRouter` is the pure-algorithm form of REFER's
intra-cell protocol (Section III-C2): at each relay, rank successors by
Theorem 3.8 predicted length and take the best one that is alive —
locally, with no source notification and no route discovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Set

from repro.errors import RoutingError
from repro.kautz.disjoint import successor_table
from repro.kautz.namespace import kautz_distance, shortest_path
from repro.kautz.strings import KautzString


def greedy_next_hop(u: KautzString, v: KautzString) -> KautzString:
    """The successor on the unique shortest U→V path."""
    if u == v:
        raise RoutingError("already at destination")
    return shortest_path(u, v)[1]


def greedy_path(u: KautzString, v: KautzString) -> List[KautzString]:
    """The full shortest path U→V (alias of namespace.shortest_path)."""
    return shortest_path(u, v)


@dataclass
class RouteResult:
    """Outcome of a fault-tolerant routing attempt."""

    path: List[KautzString]
    detours: int            # times a non-best successor had to be taken
    delivered: bool

    @property
    def hops(self) -> int:
        return len(self.path) - 1


class FaultTolerantRouter:
    """Hop-by-hop REFER routing over a K(d, k) label space.

    ``is_available`` decides, per candidate hop, whether the node can
    accept a message right now (alive, link up, not congested).  The
    router never revisits a node within one message (loop prevention)
    and gives up after ``max_hops`` relays.
    """

    def __init__(
        self,
        is_available: Callable[[KautzString], bool],
        max_hops: Optional[int] = None,
    ) -> None:
        self._is_available = is_available
        self._max_hops = max_hops

    def route(self, source: KautzString, dest: KautzString) -> RouteResult:
        """Route one message; raises :class:`RoutingError` on failure.

        Failure means every untried successor at some relay is
        unavailable or already visited — with up to d - 1 simultaneous
        faults this cannot happen in a maintained Kautz cell (the graph
        is d-connected), which tests assert.
        """
        if source == dest:
            return RouteResult(path=[source], detours=0, delivered=True)
        max_hops = self._max_hops
        if max_hops is None:
            max_hops = 4 * source.k + 8
        path = [source]
        visited: Set[KautzString] = {source}
        detours = 0
        current = source
        while current != dest:
            if len(path) - 1 >= max_hops:
                raise RoutingError(
                    f"exceeded {max_hops} hops routing {source} -> {dest}"
                )
            chosen: Optional[KautzString] = None
            for rank, row in enumerate(successor_table(current, dest)):
                candidate = row.successor
                if candidate in visited:
                    continue
                if candidate != dest and not self._is_available(candidate):
                    continue
                chosen = candidate
                if rank > 0:
                    detours += 1
                break
            if chosen is None:
                raise RoutingError(
                    f"no live successor at {current} toward {dest}"
                    f" (visited={len(visited)})"
                )
            path.append(chosen)
            visited.add(chosen)
            current = chosen
        return RouteResult(path=path, detours=detours, delivered=True)


def route_generation_paths(
    u: KautzString, v: KautzString
) -> List[List[KautzString]]:
    """The DFTR-style route-generation baseline (what REFER avoids).

    Builds alternative U→V routes by breadth-first exploration of the
    Kautz digraph (equivalent to growing a tree rooted at U, as the
    paper describes for [21]), pruning shared interior nodes greedily.
    Exists so the ablation bench can compare its cost against the O(k)
    Theorem 3.8 table.
    """
    if u == v:
        return [[u]]
    paths: List[List[KautzString]] = []
    used: Set[KautzString] = set()
    for first in u.successors():
        if first == v:
            paths.append([u, v])
            continue
        if first in used:
            continue
        from collections import deque

        queue = deque([(first, (u, first))])
        seen = {u, first}
        found: Optional[List[KautzString]] = None
        while queue and found is None:
            current, trail = queue.popleft()
            if len(trail) > 2 * u.k + 3:
                continue
            for succ in current.successors():
                if succ == v:
                    found = list(trail) + [succ]
                    break
                if succ in seen or succ in used:
                    continue
                seen.add(succ)
                queue.append((succ, trail + (succ,)))
        if found is not None:
            paths.append(found)
            used.update(found[1:-1])
    paths.sort(key=len)
    return paths

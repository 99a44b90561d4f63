"""De Bruijn graphs — the comparison topology of Proposition 3.1.

The paper argues the Kautz graph beats de Bruijn (and hypercube)
topologies on the degree/diameter tradeoff.  This module provides an
actual de Bruijn digraph B(d, k) — nodes are all length-k words over a
d-letter alphabet (repeats allowed), edges are shifts — so the
comparison in :mod:`repro.kautz.analysis` can be validated against
measured diameters rather than formulas alone.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from typing import Dict, Iterator, List, Tuple

from repro.errors import KautzError


class DeBruijnGraph:
    """The de Bruijn digraph B(``degree``, ``dimension``)."""

    def __init__(self, degree: int, dimension: int) -> None:
        if degree < 1 or dimension < 1:
            raise KautzError("degree and dimension must be >= 1")
        self.degree = degree
        self.dimension = dimension

    @property
    def node_count(self) -> int:
        return self.degree ** self.dimension

    @property
    def edge_count(self) -> int:
        return self.node_count * self.degree

    def nodes(self) -> Iterator[Tuple[int, ...]]:
        return product(range(self.degree), repeat=self.dimension)

    def successors(self, node: Tuple[int, ...]) -> List[Tuple[int, ...]]:
        return [
            node[1:] + (letter,) for letter in range(self.degree)
        ]

    def predecessors(self, node: Tuple[int, ...]) -> List[Tuple[int, ...]]:
        return [
            (letter,) + node[:-1] for letter in range(self.degree)
        ]

    def distance(
        self, u: Tuple[int, ...], v: Tuple[int, ...]
    ) -> int:
        """Shortest-path distance: smallest shift count aligning u to v."""
        if u == v:
            return 0
        k = self.dimension
        for steps in range(1, k + 1):
            if u[steps:] == v[: k - steps]:
                return steps
        return k

    def measured_diameter(self) -> int:
        """All-pairs BFS diameter (small graphs; equals ``dimension``)."""
        best = 0
        nodes = list(self.nodes())
        for source in nodes:
            dist: Dict[Tuple[int, ...], int] = {source: 0}
            queue = deque([source])
            while queue:
                current = queue.popleft()
                for succ in self.successors(current):
                    if succ not in dist:
                        dist[succ] = dist[current] + 1
                        queue.append(succ)
            best = max(best, max(dist.values()))
        return best


def smallest_debruijn_for(population: int, degree: int) -> int:
    """Smallest dimension k with ``degree**k >= population``."""
    if population < 1:
        raise KautzError("population must be >= 1")
    k = 1
    while degree ** k < population:
        k += 1
    return k

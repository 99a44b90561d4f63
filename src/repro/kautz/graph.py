"""The Kautz digraph K(d, k) as an enumerable, queryable object.

Nodes are :class:`~repro.kautz.strings.KautzString` labels; edges are the
shift relation ``u_1...u_k -> u_2...u_k a`` (a != u_k).  The graph is
never materialised: a label computes its own successors and
predecessors (:meth:`KautzString.successors`), which keeps even large
K(d, k) instances cheap to create.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, Iterator, List, Tuple

from repro.errors import KautzError
from repro.kautz.strings import KautzString


def kautz_node_count(degree: int, diameter: int) -> int:
    """``N = (d + 1) d^(k-1)`` (Definition 1)."""
    if degree < 1 or diameter < 1:
        raise KautzError("degree and diameter must be >= 1")
    return (degree + 1) * degree ** (diameter - 1)


class KautzGraph:
    """The Kautz digraph K(``degree``, ``diameter``)."""

    def __init__(self, degree: int, diameter: int) -> None:
        if degree < 1:
            raise KautzError(f"degree must be >= 1, got {degree}")
        if diameter < 1:
            raise KautzError(f"diameter must be >= 1, got {diameter}")
        self._degree = degree
        self._diameter = diameter

    # -- identity ----------------------------------------------------------

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def diameter(self) -> int:
        return self._diameter

    def __repr__(self) -> str:
        return f"KautzGraph(d={self._degree}, k={self._diameter})"

    # -- size ----------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return kautz_node_count(self._degree, self._diameter)

    # -- membership and enumeration ------------------------------------------

    def __contains__(self, node: KautzString) -> bool:
        return (
            isinstance(node, KautzString)
            and node.degree == self._degree
            and node.k == self._diameter
        )

    def _require(self, node: KautzString) -> None:
        if node not in self:
            raise KautzError(f"{node!r} is not a node of {self!r}")

    def nodes(self) -> Iterator[KautzString]:
        """All nodes, in lexicographic order of their labels."""
        for i in range(self.node_count):
            yield self.node_at(i)

    def node_at(self, index: int) -> KautzString:
        """The ``index``-th node in lexicographic order.

        Kautz strings of length k are in bijection with pairs
        (first letter in [0, d], k-1 subsequent relative choices in
        [0, d-1]): each following letter is the a-th letter of the
        alphabet after removing the previous letter.
        """
        n = self.node_count
        if not 0 <= index < n:
            raise KautzError(f"node index {index} out of range [0, {n})")
        d = self._degree
        rest, first = divmod_rev(index, d + 1, self._diameter - 1, d)
        letters = [first]
        for choice in rest:
            letter = choice if choice < letters[-1] else choice + 1
            letters.append(letter)
        return KautzString(tuple(letters), d)

    def random_node(self, rng: random.Random) -> KautzString:
        """A uniformly random node."""
        return KautzString.random(self._degree, self._diameter, rng)

    # -- global measures --------------------------------------------------------

    def bfs_distance(self, u: KautzString, v: KautzString) -> int:
        """Hop distance by breadth-first search (test oracle for k - l)."""
        self._require(u)
        self._require(v)
        if u == v:
            return 0
        queue = deque([(u, 0)])
        seen = {u}
        while queue:
            current, dist = queue.popleft()
            for succ in current.successors():
                if succ == v:
                    return dist + 1
                if succ not in seen:
                    seen.add(succ)
                    queue.append((succ, dist + 1))
        raise KautzError(f"{v!r} unreachable from {u!r}")

    def measured_diameter(self) -> int:
        """The true diameter by all-pairs BFS (small graphs only)."""
        best = 0
        nodes = list(self.nodes())
        for source in nodes:
            dist: Dict[KautzString, int] = {source: 0}
            queue = deque([source])
            while queue:
                current = queue.popleft()
                for succ in current.successors():
                    if succ not in dist:
                        dist[succ] = dist[current] + 1
                        queue.append(succ)
            if len(dist) != len(nodes):
                raise KautzError("graph not strongly connected")
            best = max(best, max(dist.values()))
        return best


def divmod_rev(
    index: int, first_base: int, tail_len: int, tail_base: int
) -> Tuple[List[int], int]:
    """Decompose ``index`` into (tail choices, leading letter).

    Helper for :meth:`KautzGraph.node_at`: interprets ``index`` as a
    mixed-radix number whose most-significant digit is the first letter
    (base ``first_base``) followed by ``tail_len`` digits in base
    ``tail_base``.
    """
    choices: List[int] = []
    for _ in range(tail_len):
        index, digit = divmod(index, tail_base)
        choices.append(digit)
    if index >= first_base:
        raise KautzError("index decomposition overflow")
    choices.reverse()
    return choices, index

"""Simple-path enumeration in Kautz graphs.

The related work the paper builds on (Panchapakesan et al.; Li et al.)
studies both shortest- and longest-path routing in Kautz graphs, and
REFER's own embedding walks the *longest* useful paths between
actuator pairs (the TTL=2 queries span exactly k hops).  This module
provides the generic machinery: bounded enumeration of simple paths
and longest simple-path search.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.errors import KautzError
from repro.kautz.strings import KautzString


def simple_paths(
    source: KautzString,
    dest: KautzString,
    max_length: int,
) -> Iterator[List[KautzString]]:
    """Yield every simple path source -> dest of at most ``max_length`` hops.

    Depth-first enumeration; paths are yielded shortest-prefix-first
    within each branch.  ``max_length`` bounds the exponential search.
    """
    if source.k != dest.k or source.degree != dest.degree:
        raise KautzError("incompatible Kautz strings")
    if max_length < 0:
        raise KautzError("max_length must be >= 0")

    stack: List[KautzString] = [source]
    on_path = {source}

    def recurse() -> Iterator[List[KautzString]]:
        current = stack[-1]
        if current == dest:
            yield list(stack)
            return
        if len(stack) - 1 >= max_length:
            return
        for succ in current.successors():
            if succ in on_path:
                continue
            stack.append(succ)
            on_path.add(succ)
            yield from recurse()
            stack.pop()
            on_path.discard(succ)

    yield from recurse()


def count_simple_paths(
    source: KautzString, dest: KautzString, max_length: int
) -> int:
    """Number of simple paths up to ``max_length`` hops."""
    return sum(1 for _ in simple_paths(source, dest, max_length))


def longest_simple_path(
    source: KautzString,
    dest: KautzString,
    max_length: Optional[int] = None,
) -> Optional[List[KautzString]]:
    """The longest simple path source -> dest (ties: first found).

    ``max_length`` defaults to the number of vertices of the graph
    minus one (a Hamiltonian-path bound); smaller values keep the
    search tractable on larger graphs.
    """
    if max_length is None:
        d, k = source.degree, source.k
        max_length = (d + 1) * d ** (k - 1) - 1
    best: Optional[List[KautzString]] = None
    for path in simple_paths(source, dest, max_length):
        if best is None or len(path) > len(best):
            best = path
    return best

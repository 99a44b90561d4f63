"""The L(U, V) overlap metric and Kautz distance (Section III-B).

For Kautz strings ``U = u_1...u_k`` and ``V = v_1...v_k``,
``L(U, V)`` is the length of the longest suffix of U that is a prefix
of V, and the routing distance is ``k - L(U, V)``: the greedy shortest
protocol shifts in the remaining ``k - l`` letters of V one hop at a
time.
"""

from __future__ import annotations

import functools
from typing import List

from repro.errors import KautzError
from repro.kautz.strings import KautzString

#: Label pairs remembered by the memoised pair functions
#: (:func:`kautz_distance` here, ``disjoint.successor_table``).  A
#: K(2, 3) cell has 132 ordered pairs; the bound only matters for
#: analysis sweeps over large K(d, k), where old pairs are evicted.
MEMO_SIZE = 1 << 16


def _check_compatible(u: KautzString, v: KautzString) -> None:
    if u.k != v.k or u.degree != v.degree:
        raise KautzError(
            f"incompatible Kautz strings: {u!r} vs {v!r}"
        )


def overlap(u: KautzString, v: KautzString) -> int:
    """``L(U, V)``: longest l with ``u_{k-l+1}..u_k == v_1..v_l``.

    Ranges over ``0..k``; equals ``k`` iff ``U == V``.
    """
    _check_compatible(u, v)
    k = u.k
    for l in range(k, 0, -1):
        if u.letters[k - l :] == v.letters[:l]:
            return l
    return 0


@functools.lru_cache(maxsize=MEMO_SIZE)
def kautz_distance(u: KautzString, v: KautzString) -> int:
    """Length of the unique shortest U→V path: ``k - L(U, V)``."""
    return u.k - overlap(u, v)


def shortest_path(u: KautzString, v: KautzString) -> List[KautzString]:
    """The unique shortest U→V path (inclusive of both endpoints).

    Constructed by shifting in ``v_{l+1} ... v_k`` where ``l = L(U, V)``.
    Always a valid Kautz walk: the join letter ``v_{l+1}`` differs from
    ``u_k`` because V itself is a valid Kautz string (for l >= 1,
    u_k == v_l != v_{l+1}) and by maximality of l when l == 0.
    """
    l = overlap(u, v)
    path = [u]
    current = u
    for letter in v.letters[l:]:
        current = current.shift(letter)
        path.append(current)
    return path

"""Theorem 3.8: the d node-disjoint U→V paths from node IDs alone.

This module is the paper's core technical contribution.  Given only the
labels of U and V in K(d, k), it produces every successor of U together
with the length of the disjoint U→V path through that successor and the
case of Theorem 3.8 it falls under:

====  =============================  ===========  =========================
case  successor                      path length  condition
====  =============================  ===========  =========================
(1)   ``u_2 .. u_k u_{k-l}``         k + 2        ``u_{k-l} != v_{l+1}``
(2)   ``u_2 .. u_k v_{l+1}``         k - l        the shortest path
(3)   ``u_2 .. u_k v_1``             k            ``u_k != v_1``
(4)   ``u_2 .. u_k a_i``             k + 1        otherwise
====  =============================  ===========  =========================

where ``l = L(U, V)`` and, for case (4),
``a_i not in {v_1, v_{l+1}, u_{k-l}}``.

The table is computed in O(k) time with no graph traversal — this is
exactly the property REFER's routing protocol exploits to avoid the
energy-consuming route-generation algorithms of BAKE/DFTR.

Degenerate cases (documented in DESIGN.md) are handled explicitly:

* ``l == 0``: ``v_{l+1} == v_1``, so cases (2) and (3) coincide and the
  conflict digit ``u_{k-l} == u_k`` is not a legal out-digit — the table
  simply has one shortest entry of length k and d-1 entries of length
  k + 1.
* ``v_1 == v_{l+1}`` with ``l >= 1``: cases (2) and (3) coincide.
* ``u_{k-l} == u_k``: the conflict successor does not exist (would
  repeat the last letter); no case-(1) entry is emitted.
* ``u_{k-l} == v_1``: the case-(3) successor is also the conflict
  digit; the paper's in-digit argument gives it in-digit ``u_k``
  (case 3 wins) and the intersection with the shortest path is impossible,
  so it is classified as case (3).

Path *construction* (:func:`disjoint_paths`) follows the canonical
completions from the paper's proofs and falls back to a
disjointness-preserving BFS when a canonical completion would be an
invalid Kautz walk (possible only in degenerate label patterns; the
test-suite quantifies this).
"""

from __future__ import annotations

import enum
import functools
from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import KautzError, RoutingError
from repro.kautz.namespace import MEMO_SIZE, overlap
from repro.kautz.strings import KautzString


class PathCase(enum.Enum):
    """Which case of Theorem 3.8 a successor falls under."""

    SHORTEST = "shortest"       # case (2), length k - l
    VIA_V1 = "via_v1"           # case (3), length k
    CONFLICT = "conflict"       # case (1), length k + 2
    OTHER = "other"             # case (4), length k + 1


@dataclass(frozen=True)
class SuccessorInfo:
    """One row of the Theorem 3.8 successor table."""

    successor: KautzString
    out_digit: int
    predicted_length: int
    case: PathCase

    def __repr__(self) -> str:
        return (
            f"SuccessorInfo({self.successor}, len={self.predicted_length},"
            f" {self.case.value})"
        )


@functools.lru_cache(maxsize=MEMO_SIZE)
def successor_table(
    u: KautzString, v: KautzString
) -> Tuple[SuccessorInfo, ...]:
    """The Theorem 3.8 table for the U→V pair, sorted by predicted length.

    Returns one entry per out-neighbour of U (d entries), each with the
    predicted length of the disjoint U→V path through it.  Raises
    :class:`KautzError` if ``u == v`` (no routing needed) or the labels
    are incompatible.

    The table is a pure function of the two labels and every relay of
    every packet asks for it, so it is memoised on the pair; the rows
    come back as an immutable tuple because all callers share them.
    """
    if u.k != v.k or u.degree != v.degree:
        raise KautzError(f"incompatible Kautz strings: {u!r} vs {v!r}")
    if u == v:
        raise KautzError("successor_table of a node to itself")
    k = u.k
    l = overlap(u, v)
    shortest_digit = v.letters[l]          # v_{l+1}
    v1 = v.letters[0]
    conflict_digit = u.letters[k - l - 1] if l >= 1 else None  # u_{k-l}
    rows: List[SuccessorInfo] = []
    for digit in u.successor_letters():
        if digit == shortest_digit:
            case, length = PathCase.SHORTEST, k - l
        elif digit == v1:
            case, length = PathCase.VIA_V1, k
        elif conflict_digit is not None and digit == conflict_digit:
            case, length = PathCase.CONFLICT, k + 2
        else:
            case, length = PathCase.OTHER, k + 1
        rows.append(
            SuccessorInfo(u.shift(digit), digit, length, case)
        )
    rows.sort(key=lambda r: (r.predicted_length, r.out_digit))
    return tuple(rows)


def ranked_successors(
    u: KautzString,
    v: KautzString,
    exclude: FrozenSet[KautzString] = frozenset(),
) -> List[KautzString]:
    """Successors of U ordered by disjoint-path length, minus ``exclude``.

    This is the routing primitive: when the best successor fails, the
    relay moves to the next entry — no route discovery, no notification
    of the source (Section III-C2).
    """
    return [
        row.successor
        for row in successor_table(u, v)
        if row.successor not in exclude
    ]


# ---------------------------------------------------------------------------
# Canonical disjoint-path construction (used for analysis and as the test
# oracle target; the runtime protocol only needs successor_table).
# ---------------------------------------------------------------------------


def _walk(start: KautzString, letters: Sequence[int]) -> Optional[List[KautzString]]:
    """Shift ``letters`` into ``start`` one at a time.

    Returns the node sequence including ``start``, or ``None`` if any
    shift would repeat a letter (invalid Kautz walk).
    """
    path = [start]
    current = start
    for letter in letters:
        if letter == current.last:
            return None
        current = current.shift(letter)
        path.append(current)
    return path


def _canonical_completion(
    u: KautzString, v: KautzString, row: SuccessorInfo
) -> Optional[List[KautzString]]:
    """The paper's canonical U→V path through ``row.successor``.

    * shortest: shift in ``v_{l+2} .. v_k`` after the successor.
    * via_v1:   the successor ends with v_1; shift in ``v_2 .. v_k``.
    * other:    in-digit is the out-digit a; shift in ``v_1 .. v_k``.
    * conflict: Proposition 3.7 — forward to ``u_3..u_k a v_{l+1}`` then
      shift in ``v_1 .. v_k``.

    Returns ``None`` when the completion is not a valid Kautz walk
    (degenerate label patterns only).
    """
    l = overlap(u, v)
    if row.case is PathCase.SHORTEST:
        tail = _walk(row.successor, v.letters[l + 1 :])
    elif row.case is PathCase.VIA_V1:
        tail = _walk(row.successor, v.letters[1:])
    elif row.case is PathCase.OTHER:
        tail = _walk(row.successor, v.letters)
    else:  # CONFLICT: append v_{l+1} first (Proposition 3.7)
        tail = _walk(row.successor, (v.letters[l],) + v.letters)
    if tail is None:
        return None
    return [u] + tail


def _bfs_avoiding(
    u_successor: KautzString,
    v: KautzString,
    forbidden: Set[KautzString],
    max_length: int,
) -> Optional[List[KautzString]]:
    """Shortest path from ``u_successor`` to ``v`` avoiding ``forbidden``.

    Fallback used when a canonical completion is invalid.  Bounded by
    ``max_length`` hops to keep the search local.
    """
    if u_successor == v:
        return [u_successor]
    queue = deque([(u_successor, (u_successor,))])
    seen = {u_successor}
    while queue:
        current, path = queue.popleft()
        if len(path) > max_length:
            continue
        for succ in current.successors():
            if succ == v:
                return list(path) + [succ]
            if succ in seen or succ in forbidden:
                continue
            seen.add(succ)
            queue.append((succ, path + (succ,)))
    return None


def disjoint_paths(
    u: KautzString, v: KautzString
) -> List[List[KautzString]]:
    """Construct the d node-disjoint U→V paths, shortest first.

    Canonical completions per Theorem 3.8; where a degenerate label
    pattern invalidates a canonical completion, a bounded BFS that
    avoids the already-built paths takes over.  Raises
    :class:`RoutingError` if d disjoint paths cannot be realised (does
    not happen for any pair in any K(d, k) we test — d-connectivity is
    a theorem — but the guard keeps the function total).
    """
    rows = successor_table(u, v)
    paths: List[List[KautzString]] = []
    used: Set[KautzString] = set()  # interior nodes of accepted paths
    deferred: List[SuccessorInfo] = []
    for row in rows:
        candidate = _canonical_completion(u, v, row)
        if candidate is not None and _interior_disjoint(candidate, used):
            paths.append(candidate)
            used.update(candidate[1:-1])
        else:
            deferred.append(row)
    for row in deferred:
        forbidden = set(used)
        forbidden.add(u)
        tail = _bfs_avoiding(
            row.successor, v, forbidden, max_length=2 * u.k + 2
        )
        if tail is None:
            raise RoutingError(
                f"could not realise disjoint path via {row.successor}"
            )
        candidate = [u] + tail
        paths.append(candidate)
        used.update(candidate[1:-1])
    paths.sort(key=len)
    return paths


def _interior_disjoint(path: List[KautzString], used: Set[KautzString]) -> bool:
    """Whether the path's interior avoids ``used`` and itself repeats no node."""
    interior = path[1:-1]
    if any(node in used for node in interior):
        return False
    full = path if path[0] != path[-1] else path[:-1]
    return len(set(full)) == len(full) and path[0] not in interior \
        and path[-1] not in interior


def verify_node_disjoint(paths: Sequence[Sequence[KautzString]]) -> bool:
    """Whether the paths share only their first and last node.

    All paths must have the same endpoints; interiors must be pairwise
    disjoint and each path must itself be simple.
    """
    if not paths:
        return True
    source, dest = paths[0][0], paths[0][-1]
    seen_interior: Set[KautzString] = set()
    for path in paths:
        if path[0] != source or path[-1] != dest:
            return False
        interior = list(path[1:-1])
        if len(set(interior)) != len(interior):
            return False
        if source in interior or dest in interior:
            return False
        for node in interior:
            if node in seen_interior:
                return False
            seen_interior.add(node)
    return True


def predicted_length_accuracy(
    u: KautzString, v: KautzString
) -> List[Tuple[SuccessorInfo, int]]:
    """Pair each table row with the realised disjoint-path length.

    Analysis helper: returns ``(row, actual_length)`` for each successor,
    where ``actual_length`` comes from :func:`disjoint_paths`.  Used by
    tests and the ablation bench to quantify how tight Theorem 3.8's
    predictions are, including in degenerate cases.
    """
    rows = successor_table(u, v)
    paths = disjoint_paths(u, v)
    by_successor: Dict[KautzString, int] = {
        path[1]: len(path) - 1 for path in paths
    }
    return [(row, by_successor[row.successor]) for row in rows]

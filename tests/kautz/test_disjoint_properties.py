"""Property-based Theorem 3.8 checks on random K(d, 3) pairs.

The exhaustive suite (``test_disjoint.py``) proves the theorem on the
small graphs the paper uses; these properties hammer random pairs in
K(d, 3) for d up to 5 — the diameter REFER's cells actually run with —
asserting the three claims the routing protocol leans on:

* the d constructed U→V paths are pairwise *vertex*-disjoint,
* every consecutive pair along every path is a real Kautz edge,
* realised lengths follow the theorem's closed forms
  (k - l / k / k + 1 / k + 2 per case), with the documented
  heavy-overlap deviation (2l >= k, DESIGN.md "Theorem 3.8 corner
  cases") of exactly +-2 confined to case-(3)/(4) rows.

All properties run derandomized (fixed seed profile) with >= 200
examples each.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.kautz.disjoint import (
    PathCase,
    disjoint_paths,
    predicted_length_accuracy,
    successor_table,
    verify_node_disjoint,
)
from repro.kautz.namespace import kautz_distance, overlap
from repro.kautz.strings import KautzString

PROFILE = settings(max_examples=200, deadline=None, derandomize=True)

DIAMETER = 3   # REFER cells are K(d, 3)


@st.composite
def kd3_pairs(draw):
    """A random (U, V) pair with U != V in K(d, 3), d in [2, 5]."""
    degree = draw(st.integers(min_value=2, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    rng = random.Random(seed)
    u = KautzString.random(degree, DIAMETER, rng)
    v = KautzString.random(degree, DIAMETER, rng)
    while v == u:
        v = KautzString.random(degree, DIAMETER, rng)
    return u, v


@PROFILE
@given(kd3_pairs())
def test_d_paths_pairwise_vertex_disjoint(pair):
    u, v = pair
    paths = disjoint_paths(u, v)
    assert len(paths) == u.degree
    assert verify_node_disjoint(paths)
    # Each path leaves U through a distinct successor — that is what
    # makes the bundle usable for simultaneous multipath transmission.
    first_hops = [path[1] for path in paths]
    assert len(set(first_hops)) == u.degree


@PROFILE
@given(kd3_pairs())
def test_every_consecutive_pair_is_a_kautz_edge(pair):
    u, v = pair
    for path in disjoint_paths(u, v):
        assert path[0] == u and path[-1] == v
        for a, b in zip(path, path[1:]):
            assert b in a.successors()


@PROFILE
@given(kd3_pairs())
def test_realised_lengths_follow_closed_forms(pair):
    u, v = pair
    k, l = u.k, overlap(u, v)
    expected = {
        PathCase.SHORTEST: k - l,
        PathCase.VIA_V1: k,
        PathCase.OTHER: k + 1,
        PathCase.CONFLICT: k + 2,
    }
    for row, actual in predicted_length_accuracy(u, v):
        assert row.predicted_length == expected[row.case]
        if 2 * l < k:
            assert actual == row.predicted_length
        else:
            # Documented deviation (DESIGN.md "Theorem 3.8 corner
            # cases"): heavy-overlap pairs may shift a case-(3)/(4)
            # realisation by exactly 2.
            if actual != row.predicted_length:
                assert row.case in (PathCase.VIA_V1, PathCase.OTHER)
                assert abs(actual - row.predicted_length) == 2


@PROFILE
@given(kd3_pairs())
def test_shortest_path_realises_kautz_distance(pair):
    u, v = pair
    paths = disjoint_paths(u, v)
    assert len(paths[0]) - 1 == kautz_distance(u, v)
    shortest_rows = [
        r for r in successor_table(u, v) if r.case is PathCase.SHORTEST
    ]
    assert len(shortest_rows) == 1
    assert shortest_rows[0].predicted_length == kautz_distance(u, v)

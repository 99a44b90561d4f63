"""Cross-cutting property-based tests over the Kautz routing stack.

These hit random (d, k, U, V) combinations rather than fixed graphs,
complementing the exhaustive small-graph tests.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.kautz.disjoint import (
    PathCase,
    disjoint_paths,
    successor_table,
    verify_node_disjoint,
)
from repro.kautz.graph import KautzGraph
from repro.kautz.namespace import kautz_distance, overlap, shortest_path
from repro.kautz.routing import FaultTolerantRouter
from repro.kautz.strings import KautzString


@st.composite
def kautz_pairs(draw):
    """A random (graph, U, V) with U != V."""
    degree = draw(st.integers(min_value=2, max_value=5))
    diameter = draw(st.integers(min_value=2, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = random.Random(seed)
    graph = KautzGraph(degree, diameter)
    u = graph.random_node(rng)
    v = graph.random_node(rng)
    while v == u:
        v = graph.random_node(rng)
    return graph, u, v


@settings(max_examples=120, deadline=None)
@given(kautz_pairs())
def test_table_covers_all_successors_once(pair):
    graph, u, v = pair
    rows = successor_table(u, v)
    assert len(rows) == graph.degree
    assert {r.successor for r in rows} == set(u.successors())


@settings(max_examples=120, deadline=None)
@given(kautz_pairs())
def test_exactly_one_shortest_row_with_correct_length(pair):
    graph, u, v = pair
    shortest = [
        r for r in successor_table(u, v) if r.case is PathCase.SHORTEST
    ]
    assert len(shortest) == 1
    assert shortest[0].predicted_length == kautz_distance(u, v)
    assert shortest[0].successor == shortest_path(u, v)[1]


@settings(max_examples=120, deadline=None)
@given(kautz_pairs())
def test_predicted_lengths_bounded(pair):
    graph, u, v = pair
    k = graph.diameter
    for row in successor_table(u, v):
        assert 1 <= row.predicted_length <= k + 2


@settings(max_examples=60, deadline=None)
@given(kautz_pairs())
def test_disjoint_paths_always_d_and_disjoint(pair):
    graph, u, v = pair
    paths = disjoint_paths(u, v)
    assert len(paths) == graph.degree
    assert verify_node_disjoint(paths)
    for path in paths:
        for a, b in zip(path, path[1:]):
            assert b in a.successors()


@settings(max_examples=60, deadline=None)
@given(kautz_pairs())
def test_shortest_path_is_the_greedy_path(pair):
    graph, u, v = pair
    path = shortest_path(u, v)
    assert len(path) - 1 == kautz_distance(u, v)
    current = u
    for nxt in path[1:]:
        assert nxt == shortest_path(current, v)[1]
        current = nxt


@settings(max_examples=60, deadline=None)
@given(kautz_pairs(), st.integers(min_value=0, max_value=10**6))
def test_router_with_random_faults_is_loop_free(pair, fault_seed):
    graph, u, v = pair
    rng = random.Random(fault_seed)
    others = [n for n in (graph.random_node(rng) for _ in range(6))
              if n not in (u, v)]
    failed = set(others[:3])
    router = FaultTolerantRouter(is_available=lambda n: n not in failed)
    try:
        result = router.route(u, v)
    except Exception:
        return
    assert result.path[0] == u and result.path[-1] == v
    assert len(set(result.path)) == len(result.path)
    assert not failed.intersection(result.path[1:-1])


@settings(max_examples=120, deadline=None)
@given(kautz_pairs())
def test_overlap_symmetry_relation(pair):
    """L is not symmetric, but the distance triangle bound holds."""
    graph, u, v = pair
    k = graph.diameter
    duv = kautz_distance(u, v)
    dvu = kautz_distance(v, u)
    assert 0 < duv <= k
    assert 0 < dvu <= k

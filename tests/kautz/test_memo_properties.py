"""Properties of the memoised Theorem 3.8 pair functions.

:func:`~repro.kautz.disjoint.successor_table` and
:func:`~repro.kautz.namespace.kautz_distance` are pure functions of two
labels and are memoised on the pair.  For random ``K(d <= 5, k <= 4)``
pairs these properties assert that the memo is invisible:

* a memoised answer equals a fresh computation by the undecorated
  function (``__wrapped__``), hit or miss;
* the shared rows cannot be mutated by a caller;
* invalid input raises :class:`KautzError` on *every* call — an error
  is never cached away;
* the fault-tolerant router decides identically on memoised and on
  freshly computed tables under random failure sets — same paths, same
  detour counts, and failures (when greedy hop-by-hop strands itself)
  in exactly the same situations.
"""

import dataclasses
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import KautzError, RoutingError
from repro.kautz import routing
from repro.kautz.disjoint import (
    disjoint_paths,
    successor_table,
    verify_node_disjoint,
)
from repro.kautz.graph import KautzGraph
from repro.kautz.namespace import kautz_distance
from repro.kautz.routing import FaultTolerantRouter
from repro.kautz.strings import KautzString

PROFILE = settings(max_examples=100, deadline=None, derandomize=True)

fresh_table = successor_table.__wrapped__
fresh_distance = kautz_distance.__wrapped__


@st.composite
def label_pairs(draw):
    """A random (u, v) pair of one K(d <= 5, k <= 4), with u != v."""
    degree = draw(st.integers(min_value=2, max_value=5))
    k = draw(st.integers(min_value=2, max_value=4))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    u = KautzString.random(degree, k, rng)
    v = KautzString.random(degree, k, rng)
    while v == u:
        v = KautzString.random(degree, k, rng)
    return u, v


@PROFILE
@given(label_pairs())
def test_tables_match_a_fresh_computation(pair):
    u, v = pair
    rows = successor_table(u, v)
    assert rows == fresh_table(u, v)
    # The second call is a hit: the very same rows, still correct.
    assert successor_table(u, v) is rows
    assert rows == fresh_table(u, v)


@PROFILE
@given(label_pairs())
def test_distances_match_a_fresh_computation(pair):
    u, v = pair
    assert kautz_distance(u, v) == fresh_distance(u, v)
    assert kautz_distance(u, v) == fresh_distance(u, v)
    assert kautz_distance(u, u) == 0


def test_rows_cannot_be_mutated_by_a_caller():
    u, v = KautzString((0, 1, 2), 2), KautzString((2, 0, 1), 2)
    rows = successor_table(u, v)
    assert isinstance(rows, tuple)
    with pytest.raises(TypeError):
        rows[0] = rows[-1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        rows[0].predicted_length = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        rows[0].successor = v
    assert successor_table(u, v) == fresh_table(u, v)


@pytest.mark.parametrize("function", [successor_table, kautz_distance])
def test_incompatible_labels_raise_on_every_call(function):
    u = KautzString((0, 1, 2), 2)
    longer = KautzString((0, 1, 2, 0), 2)
    wider = KautzString((0, 1, 3), 3)
    for _ in range(3):
        with pytest.raises(KautzError):
            function(u, longer)
        with pytest.raises(KautzError):
            function(u, wider)


def test_table_of_a_node_to_itself_raises_on_every_call():
    u = KautzString((0, 1, 2), 2)
    for _ in range(3):
        with pytest.raises(KautzError):
            successor_table(u, u)


@PROFILE
@given(label_pairs())
def test_router_parity_under_random_faults(pair):
    """Routing on memoised tables == routing on fresh tables."""
    u, v = pair
    rng = random.Random(hash(u.letters + v.letters + (u.degree,)) & 0xFFFF_FFFF)
    candidates = [
        n for n in KautzGraph(u.degree, u.k).nodes() if n not in (u, v)
    ]
    dead = set(rng.sample(candidates, min(u.degree - 1, len(candidates))))
    router = FaultTolerantRouter(is_available=lambda node: node not in dead)
    with mock.patch.object(routing, "successor_table", fresh_table):
        try:
            expected = router.route(u, v)
        except RoutingError:
            expected = None
    if expected is None:
        # Hop-by-hop greedy can strand itself behind its visited set;
        # the contract here is *parity*: the memoised tables must fail
        # in exactly the same situations.
        with pytest.raises(RoutingError):
            router.route(u, v)
        return
    result = router.route(u, v)
    assert result.path == expected.path
    assert result.detours == expected.detours
    assert result.delivered


@PROFILE
@given(label_pairs())
def test_disjoint_paths_consistent_with_tables(pair):
    """Theorem 3.8 path bundles line up with the memoised table rows."""
    u, v = pair
    paths = disjoint_paths(u, v)
    assert verify_node_disjoint(paths)
    # One table row per disjoint path, same first hops in table order.
    assert [p[1] for p in paths] == [
        row.successor for row in successor_table(u, v)
    ]

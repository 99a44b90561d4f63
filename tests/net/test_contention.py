"""``contention_at`` against the formulation it replaced.

The count used to be taken over the neighbour tuple::

    sum(1 for o in medium.neighbors(node, now) if busy_until(o) > now)

and is now taken over the radios that may be busy, never computing
the tuple (a tuple ``neighbors()`` has cached is used).  Both must
agree on every answer, and — because every walker of a world draws its legs
from one shared RNG, so a trajectory depends on the order positions
are read — on *when* the bucket's snapshot is taken: two worlds built
from the same draw are driven by the same sequence of questions, one
asked the new way and its twin the old way, and after every step the
RNG states and every node's snapshot position must be identical.

The worlds are built as in ``test_medium_geometry`` (asymmetric
ranges, a range exactly equal to a distance, shared-RNG walkers at
30 m/s, failed / asleep / flat-battery nodes), only denser and mostly
alive, so that a busy radio is usually somebody's neighbour.  The steps advance time by
zero, within a bucket and across buckets, occupy radios until before,
exactly at and after ``now`` (the test is strict ``>``), interleave
``neighbors()`` calls (which fill the cache the count then uses) and
register one more node mid-run.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetworkError
from repro.net.medium import WirelessMedium
from repro.net.mobility import RandomWaypoint, StaticMobility
from repro.net.node import Node, NodeRole
from repro.util.geometry import Point
from tests.net.test_medium_geometry import build_world, range_or_exact

PROFILE = settings(max_examples=300, deadline=None, derandomize=True)

nearby = st.floats(min_value=0.0, max_value=120.0, allow_nan=False)
node_specs = st.tuples(
    nearby, nearby, st.booleans(), range_or_exact,
    st.sampled_from([None, None, None, None, "failed", "asleep", "battery"]),
)

#: One step: how far time advances first (never backwards), what is
#: then done to which node (index modulo the world's size; for
#: ``occupy`` the new ``radio_busy_until`` relative to ``now``), and
#: whether every node's contention is asked about straight after.
steps = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.01, 0.1, 0.25, 0.3, 1.0, 7.0]),
        st.sampled_from(["occupy", "occupy", "neighbors", "topology", "add"]),
        st.integers(0, 8),
        st.sampled_from([-0.1, 0.0, 0.0, 0.05, 0.3, 5.0]),
        st.sampled_from([True, True, True, False]),
    ),
    min_size=4, max_size=24,
)


def contention_over_neighbor_tuple(medium, node_id, now):
    """``contention_at`` as it was before the busy set."""
    return sum(
        1
        for other_id in medium.neighbors(node_id, now)
        if medium.node(other_id).radio_busy_until > now
    )


def snapshot(medium):
    grid = medium.spatial_grid
    return {item: grid.position_of(item) for item in grid.items()}


def register(medium, rng, node_id, spec):
    x, y, walks, reach, state = spec
    mobility = (
        RandomWaypoint(Point(x, y), 300.0, 30.0, rng)
        if walks else StaticMobility(Point(x, y))
    )
    node = Node(node_id, NodeRole.SENSOR, mobility, reach or 120.0)
    node.failed = state == "failed"
    medium.add_node(node)


@PROFILE
@given(
    st.lists(node_specs, min_size=2, max_size=8),
    st.integers(0, 1000),
    node_specs,
    steps,
)
def test_contention_is_the_count_over_the_neighbor_tuple(
    specs, seed, late_spec, script
):
    lazy, lazy_rng, _ = build_world(specs, seed, 0.0, False)
    twin, twin_rng, _ = build_world(specs, seed, 0.0, False)
    size = len(specs)
    now = 0.0
    for advance, action, index, busy_for, asked in script:
        now += advance
        node_id = index % size
        if action == "occupy":
            lazy.node(node_id).radio_busy_until = now + busy_for
            twin.node(node_id).radio_busy_until = now + busy_for
        elif action == "add":
            if size == len(specs):  # once per world
                register(lazy, lazy_rng, size, late_spec)
                register(twin, twin_rng, size, late_spec)
                size += 1
        else:
            usable_only = action == "neighbors"
            assert lazy.neighbors(node_id, now, usable_only) == (
                twin.neighbors(node_id, now, usable_only)
            )
        if asked:
            for asked_id in range(size):
                assert lazy.contention_at(asked_id, now) == (
                    contention_over_neighbor_tuple(twin, asked_id, now)
                )
        assert lazy_rng.getstate() == twin_rng.getstate()
        if lazy.spatial_grid is not None or twin.spatial_grid is not None:
            assert snapshot(lazy) == snapshot(twin)


def static_world(*xs):
    medium = WirelessMedium(cache_resolution=0.25)
    for node_id, x in enumerate(xs):
        medium.add_node(
            Node(node_id, NodeRole.SENSOR, StaticMobility(Point(x, 0.0)), 50.0)
        )
    return medium


def test_liveness_flip_inside_a_bucket():
    """The one place the walk and the tuple part ways, pinned.

    A cached tuple holds ``usable`` as of the first ``neighbors()``
    call for that node in the bucket; the walk reads it at the call
    and caches nothing, so a frame no longer freezes what a later
    ``neighbors()`` in the bucket sees.
    """
    medium = static_world(0.0, 10.0, 20.0)
    busy = medium.node(1)
    busy.radio_busy_until = 10.0
    assert medium.contention_at(0, 1.0) == 1  # walked; nothing cached
    busy.failed = True
    assert medium.neighbors(0, 1.1) == (2,)  # liveness as of this call
    assert medium.contention_at(0, 1.1) == 0
    busy.failed = False
    assert medium.neighbors(0, 1.2) == (2,)  # stale by design
    assert medium.contention_at(0, 1.2) == 0  # over the cached tuple
    assert medium.contention_at(2, 1.2) == 1  # no tuple: liveness now
    assert medium.contention_at(0, 1.25) == 1  # next bucket


def test_a_node_files_with_one_medium_only():
    medium = static_world(0.0, 10.0)
    with pytest.raises(NetworkError, match="node 1 is registered with another"):
        WirelessMedium().add_node(medium.node(1))

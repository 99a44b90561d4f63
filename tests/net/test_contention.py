"""``contention_at`` against the count it stands for.

The count is a packet-time question: how many *other usable* nodes
whose radio is busy strictly after ``now`` are, at their exact
positions at ``now``, within both transmission ranges.  The oracle
takes that sentence literally — every node, ``Point.distance_to`` —
where the medium walks only the radios that filed themselves busy and
drops the ones it finds expired.

The worlds are built as in ``test_medium_geometry`` (asymmetric
ranges, a range exactly equal to a distance, keyed walkers at 30 m/s,
failed / flat-battery nodes), only denser and mostly alive,
so that a busy radio is usually somebody's neighbour.  The steps
advance time by zero, within a snapshot bucket and across buckets,
occupy radios until before, exactly at and after ``now`` (the test is
strict ``>``), interleave ``neighbors()`` calls (whose snapshot and
cached tuples the count must not see) and register one more node
mid-run.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetworkError
from repro.net.medium import WirelessMedium
from repro.net.mobility import RandomWaypoint, StaticMobility
from repro.net.node import Node, NodeRole
from repro.util.geometry import Point
from repro.util.rng import KeyedStream
from tests.net.test_medium_geometry import build_world, range_or_exact

PROFILE = settings(max_examples=300, deadline=None, derandomize=True)

nearby = st.floats(min_value=0.0, max_value=120.0, allow_nan=False)
node_specs = st.tuples(
    nearby, nearby, st.booleans(), range_or_exact,
    st.sampled_from([None, None, None, None, "failed", "battery"]),
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


def brute_contention(medium, node_id, now):
    """The docstring of ``contention_at``, over every registered node."""
    node = medium.node(node_id)
    here = node.position(now)
    count = 0
    for other in medium.nodes():
        if other is node or not other.usable:
            continue
        if not other.radio_busy_until > now:
            continue
        distance = here.distance_to(other.position(now))
        if (
            distance <= node.transmission_range
            and distance <= other.transmission_range
        ):
            count += 1
    return count


def register(medium, seed, node_id, spec):
    x, y, walks, reach, state = spec
    mobility = (
        RandomWaypoint(
            Point(x, y), 300.0, 30.0,
            KeyedStream(random.Random(seed)).of(node_id),
        )
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
def test_contention_is_the_brute_count_at_exact_positions(
    specs, seed, late_spec, script
):
    medium, _ = build_world(specs, seed, 0.0, False)
    size = len(specs)
    now = 0.0
    for advance, action, index, busy_for, asked in script:
        now += advance
        node_id = index % size
        if action == "occupy":
            medium.node(node_id).radio_busy_until = now + busy_for
        elif action == "add":
            if size == len(specs):  # once per world
                register(medium, seed, size, late_spec)
                size += 1
        else:
            medium.neighbors(node_id, now, action == "neighbors")
        if asked:
            for asked_id in range(size):
                assert medium.contention_at(asked_id, now) == (
                    brute_contention(medium, asked_id, now)
                )
            # The walk dropped every radio it found expired.
            assert all(
                node.radio_busy_until > now for node in medium._busy.values()
            )


def static_world(*xs):
    medium = WirelessMedium(cache_resolution=0.25)
    for node_id, x in enumerate(xs):
        medium.add_node(
            Node(node_id, NodeRole.SENSOR, StaticMobility(Point(x, 0.0)), 50.0)
        )
    return medium


def test_liveness_flip_inside_a_bucket():
    """A neighbour tuple freezes ``usable`` as of its first computation
    in the bucket; the count reads it at the call and never looks at
    the tuple."""
    medium = static_world(0.0, 10.0, 20.0)
    busy = medium.node(1)
    busy.radio_busy_until = 10.0
    assert medium.contention_at(0, 1.0) == 1
    busy.failed = True
    assert medium.neighbors(0, 1.1) == (2,)
    assert medium.contention_at(0, 1.1) == 0
    busy.failed = False
    assert medium.neighbors(0, 1.2) == (2,)  # the tuple is stale by design
    assert medium.contention_at(0, 1.2) == 1  # the count is not


def test_a_walker_is_counted_where_it_is_not_where_the_snapshot_left_it():
    """A busy walker that leaves range inside a snapshot bucket stops
    counting at once; ``neighbors`` keeps it until the bucket rolls."""

    class Receding:
        max_speed = 100.0

        def position(self, now):
            return Point(40.0 + 100.0 * now, 0.0)

    medium = static_world(0.0)
    medium.add_node(Node(1, NodeRole.SENSOR, Receding(), 50.0))
    medium.node(1).radio_busy_until = 10.0
    assert medium.neighbors(0, 0.0) == (1,)
    assert medium.contention_at(0, 0.0) == 1
    assert medium.contention_at(0, 0.1) == 1  # exactly 50 m away
    assert medium.neighbors(0, 0.2) == (1,)  # same bucket, same snapshot
    assert medium.contention_at(0, 0.2) == 0  # 60 m away
    refreshes = medium.refreshes
    assert medium.contention_at(0, 5.0) == 0
    assert medium.refreshes == refreshes  # the count rolls no bucket


def test_a_node_files_with_one_medium_only():
    medium = static_world(0.0, 10.0)
    with pytest.raises(NetworkError, match="node 1 is registered with another"):
        WirelessMedium().add_node(medium.node(1))

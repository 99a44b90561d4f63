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
so that a busy radio is usually somebody's neighbour, and with two
mobility doubles among the walkers: one that declares ``max_speed``
but keeps no last answer, one with neither.  The steps advance time
by zero, within a snapshot bucket and across buckets, occupy radios
until before, exactly at and after ``now`` (the test is strict
``>``), interleave ``neighbors()`` calls (whose snapshot and cached
tuples the count must not see), read a node's position at an earlier
or a later instant (so the last answer a walker keeps is stale, or
ahead of ``now`` and the next read looks back) and register one more
node mid-run.

The walk rules a busy radio out unread when its model's last answer
and speed bound already place it out of range; the same oracle holds
it, and :func:`test_reachable_over_an_entry_scan_is_the_brute_filter`
holds the same rule in ``reachable`` over a destination list as long
as the Kautz overlay's entry scan (100+ members, about 8 in range).
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetworkError
from repro.net.medium import RANGE_SLACK, WirelessMedium
from repro.net.mobility import RandomWaypoint, StaticMobility
from repro.net.node import Node, NodeRole
from repro.util.geometry import Point
from repro.util.rng import KeyedStream
from tests.net.test_medium_geometry import ThirdsLinkFault

PROFILE = settings(max_examples=300, deadline=None, derandomize=True)

nearby = st.floats(min_value=0.0, max_value=120.0, allow_nan=False)
#: What moves a node: ``walker`` a keyed random waypoint at 30 m/s.
kinds = st.sampled_from(
    ["static", "walker", "walker", "walker", "bounded", "unbounded"]
)
#: A range, or ``None`` for exactly the distance to node 0: mostly
#: shorter than the 300 m field the walkers roam, so that the speed
#: bound has radios to rule out (and, wrongly widened or narrowed,
#: would rule out the wrong ones).
ranges = st.one_of(
    st.floats(min_value=1.0, max_value=150.0, allow_nan=False),
    st.sampled_from([30.0, 60.0, 400.0]),
    st.none(),
)
node_specs = st.tuples(
    nearby, nearby, kinds, ranges,
    st.sampled_from([None, None, None, None, "failed", "battery"]),
)

#: One step: how far time advances first (never backwards), what is
#: then done to which node (index modulo the world's size; an offset
#: from ``now``: for ``occupy`` the new ``radio_busy_until``, for
#: ``peek`` the instant its position is read at), and whether every
#: node's contention is asked about straight after.
steps = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.01, 0.1, 0.25, 0.3, 1.0, 7.0]),
        st.sampled_from(
            ["occupy", "occupy", "neighbors", "topology", "add", "peek"]
        ),
        st.integers(0, 8),
        st.sampled_from([-7.0, -0.1, 0.0, 0.0, 0.05, 0.3, 5.0, 40.0]),
        st.sampled_from([True, True, True, False]),
    ),
    min_size=4, max_size=24,
)


class Bounded:
    """A double with a speed bound but no readable last answer: the
    medium must always ask it."""

    max_speed = 30.0

    def __init__(self, start):
        self.start = start

    def position(self, now):
        return Point(self.start.x + 30.0 * math.sin(now), self.start.y)


class Unbounded:
    """A double with neither a speed bound nor a last answer."""

    def __init__(self, start):
        self.start = start

    def position(self, now):
        return Point(self.start.x, self.start.y + 90.0 * math.sin(5.0 * now))


def mobility_of(kind, start, seed, node_id):
    """The model of one node; a walker takes its node id's keyed draws."""
    if kind == "walker":
        legs = KeyedStream(random.Random(seed)).of(node_id)
        return RandomWaypoint(start, 300.0, 30.0, legs)
    if kind == "bounded":
        return Bounded(start)
    if kind == "unbounded":
        return Unbounded(start)
    return StaticMobility(start)


def register(medium, seed, node_id, spec, exact=120.0):
    """Register the node ``spec`` draws; a ``None`` range is ``exact``."""
    x, y, kind, reach, state = spec
    node = Node(
        node_id, NodeRole.SENSOR, mobility_of(kind, Point(x, y), seed, node_id),
        exact if reach is None else reach,
        battery_joules=1.0 if state == "battery" else None,
    )
    node.failed = state == "failed"
    if state == "battery":
        node.drain(1.0)
    medium.add_node(node)


def build_world(specs, seed):
    """Node 0 and its peers, exactly as drawn; a ``None`` range is the
    node's distance to node 0 at time 0 (node 0's: to node 1), read from
    scratch models so the real ones keep no answer yet."""
    at_zero = [
        mobility_of(kind, Point(x, y), seed, node_id).position(0.0)
        for node_id, (x, y, kind, _, _) in enumerate(specs)
    ]
    medium = WirelessMedium()
    for node_id, spec in enumerate(specs):
        exact = at_zero[0].distance_to(at_zero[node_id or 1]) or 1.0
        register(medium, seed, node_id, spec, exact)
    return medium


def brute_contention(medium, node_id, now):
    """The docstring of ``contention_at``, over every registered node."""
    node = medium.node(node_id)
    here = node.position(now)
    count = 0
    for other in medium.node_table.values():
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
    medium = build_world(specs, seed)
    size = len(specs)
    now = 0.0
    for advance, action, index, offset, asked in script:
        now += advance
        node_id = index % size
        if action == "occupy":
            medium.node(node_id).radio_busy_until = now + offset
        elif action == "peek":
            medium.node(node_id).position(max(now + offset, 0.0))
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
                medium.node(node_id).radio_busy_until > now
                for node_id in medium._busy
            )


def static_world(*xs):
    medium = WirelessMedium()
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(0, 10_000),
    st.integers(100, 130),
    st.sampled_from([7.5, 8.0, 60.0]),
    st.booleans(),
)
def test_reachable_over_an_entry_scan_is_the_brute_filter(
    seed, count, now, faulted
):
    """An entry scan's shape: one source against 100+ members in a
    300 m field, about 8 in range, every member last asked at its own
    instant (never, long before, just before, at, or after ``now``).
    The answer is the brute filter at exact positions, read after."""
    rng = random.Random(seed)
    medium = WirelessMedium()
    for node_id in range(count):
        spec = (
            rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0),
            rng.choice(["static", "walker", "walker", "walker", "bounded",
                        "unbounded"]),
            rng.choice([None, 40.0, 60.0, 100.0]),
            rng.choice([None] * 8 + ["failed", "battery"]),
        )
        register(medium, seed, node_id, spec, exact=60.0)
    for node in medium.node_table.values():
        offset = rng.choice([None, -7.5, -0.3, 0.0, 0.3, 40.0])
        if offset is not None:
            node.position(now + offset)
    if faulted:
        medium.set_link_fault(ThirdsLinkFault())
    source = rng.randrange(count)
    members = rng.sample(range(count), count)

    found = medium.reachable(source, members, now)

    src = medium.node(source)
    here = src.position(now)
    expected = []
    for member in members:
        dst = medium.node(member)
        distance = here.distance_to(dst.position(now))
        if (
            src.usable and dst.usable
            and distance <= src.transmission_range
            and (not faulted or (source + member) % 3 != 0)
        ):
            expected.append((member, distance))
    assert found == expected


class Recording:
    """Moves along the x axis toward the origin at 30 m/s and keeps its
    last answer readable, as ``RandomWaypoint`` does; counts its reads."""

    max_speed = 30.0

    def __init__(self):
        self.last_now = math.nan  # never asked: bounds nothing
        self.last_point = Point(200.0, 0.0)
        self.reads = 0

    def position(self, now):
        self.reads += 1
        self.last_now = now
        self.last_point = Point(200.0 - 30.0 * now, 0.0)
        return self.last_point


class CountedStatic(StaticMobility):
    def __init__(self, position):
        super().__init__(position)
        self.reads = 0

    def position(self, now):
        self.reads += 1
        return super().position(now)


def busy_world(*mobilities, reach=60.0):
    """Node 0 static at the origin asks; nodes 1.. are busy until 100 s."""
    medium = WirelessMedium()
    medium.add_node(
        Node(0, NodeRole.SENSOR, StaticMobility(Point(0.0, 0.0)), reach)
    )
    for node_id, mobility in enumerate(mobilities, start=1):
        node = Node(node_id, NodeRole.SENSOR, mobility, 500.0)
        node.radio_busy_until = 100.0
        medium.add_node(node)
    return medium


def test_a_stale_answer_is_bounded_by_the_time_since_it():
    """Read at 0 s 200 m off, the walker is 50 m off at 5 s: in range.
    The bound must grow with ``|now - last_now|`` to let it in."""
    walker = Recording()
    medium = busy_world(walker)
    walker.position(0.0)
    assert medium.contention_at(0, 5.0) == 1


def test_a_look_back_is_bounded_by_the_time_until_the_answer():
    """Last read at 10 s (100 m past the origin), asked at 5 s."""
    walker = Recording()
    medium = busy_world(walker)
    walker.position(10.0)
    assert medium.contention_at(0, 5.0) == 1
    walker.position(10.0)
    assert medium.reachable(0, [1], 5.0) == [(1, 50.0)]


def test_the_bound_reads_no_position_and_no_liveness():
    """A walker the bound places out of range is passed over unread;
    one never asked, and the doubles that keep no last answer, are read."""

    class Watched(Node):
        liveness_reads = 0

        @property
        def usable(self):
            type(self).liveness_reads += 1
            return True

    far, never = Recording(), Recording()
    medium = busy_world(Bounded(Point(400.0, 0.0)), Unbounded(Point(400.0, 0.0)))
    for node_id, mobility in ((3, far), (4, never)):
        node = Watched(node_id, NodeRole.SENSOR, mobility, 500.0)
        node.radio_busy_until = 100.0
        medium.add_node(node)
    far.position(0.0)  # 200 m off: 60 + 30 * 1 m cannot reach it
    assert medium.contention_at(0, 1.0) == 0
    assert (far.reads, Watched.liveness_reads) == (1, 1)  # ``never`` only
    assert never.reads == 1 and never.last_now == 1.0
    assert medium.reachable(0, [3, 1, 2], 1.0) == []
    assert far.reads == 1


def test_a_pair_exactly_at_the_range_and_at_the_slack():
    """At exactly the range a busy radio counts; at exactly ``range +
    RANGE_SLACK`` it is read (the bound is strict) and does not; one
    ulp further the bound passes it over unread."""
    at_range = CountedStatic(Point(60.0, 0.0))
    at_slack = CountedStatic(Point(60.0 + RANGE_SLACK, 0.0))
    past = CountedStatic(Point(math.nextafter(60.0 + RANGE_SLACK, math.inf), 0.0))
    medium = busy_world(at_range, at_slack, past)
    assert medium.contention_at(0, 3.0) == 1
    assert (at_range.reads, at_slack.reads, past.reads) == (1, 1, 0)
    assert medium.reachable(0, [1, 2, 3], 3.0) == [(1, 60.0)]
    assert (at_range.reads, at_slack.reads, past.reads) == (2, 2, 0)


def test_a_far_radio_expiring_exactly_now_is_dropped():
    """Expiry comes before the bound: a radio far out of range whose
    ``radio_busy_until`` is ``now`` leaves the busy set."""
    medium = busy_world(CountedStatic(Point(400.0, 0.0)))
    medium.node(1).radio_busy_until = 5.0
    assert medium.contention_at(0, 5.0) == 0
    assert 1 not in medium._busy


"""Geometry oracle: every range question agrees with ``Point.distance_to``.

``Node.distance_to`` is the net layer's one geometry primitive; the
medium's ``can_transmit`` / ``link_quality`` / ``neighbors`` are all
phrased on it.  The
oracle here is the long way round — two ``Point`` objects and
``Point.distance_to`` — over random pairs with asymmetric ranges,
static and moving, with a range drawn *exactly equal* to the distance
in a third of the cases (``<=`` for reach, ``>=`` for zero margin).

The batched forms ``reachable``, ``link_margins`` and
``link_margins_each`` are held to the single-pair questions they
replace, and ``can_transmit`` to ``reachable`` over one pair: same
answers and the same ``NetworkError`` for an unknown id, on worlds whose
walkers take keyed leg draws, as a deployment's do — in which order,
or whether, a formulation reads a position or asks a ``LinkFault`` hook
is not behaviour (``test_order_independence`` holds that), so answers
are all there is to compare.
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

PROFILE = settings(max_examples=200, deadline=None, derandomize=True)

coords = st.floats(min_value=0.0, max_value=300.0, allow_nan=False)
ranges = st.floats(min_value=1.0, max_value=400.0, allow_nan=False)
#: ``None`` stands for "exactly the distance between the two nodes".
range_or_exact = st.one_of(ranges, ranges, st.none())


class ScaledLinkFault:
    """Links whose id sum is odd are down and sensed at half margin."""

    def link_up(self, src_id, dst_id, now):
        return (src_id + dst_id) % 2 == 0

    def quality_factor(self, src_id, dst_id, now):
        return 1.0 if (src_id + dst_id) % 2 == 0 else 0.5


def build_pair(ax, ay, bx, by, range_a, range_b, seed, now):
    """Node 1 static at (ax, ay); node 2 or 3 a waypoint walker from (bx, by)."""
    walker = RandomWaypoint(Point(bx, by), 300.0, 4.0, random.Random(seed))
    distance = Point(ax, ay).distance_to(walker.position(now))
    if distance == 0.0:
        distance = 1.0
    a = Node(
        1, NodeRole.SENSOR, StaticMobility(Point(ax, ay)),
        distance if range_a is None else range_a,
    )
    b = Node(
        2 + seed % 2, NodeRole.SENSOR, walker,
        distance if range_b is None else range_b,
    )
    medium = WirelessMedium()
    medium.add_node(a)
    medium.add_node(b)
    return medium, a, b


@PROFILE
@given(
    coords, coords, coords, coords, range_or_exact, range_or_exact,
    st.integers(0, 1000), st.sampled_from([0.0, 0.25, 7.5, 60.0]),
    st.booleans(),
)
def test_range_questions_agree_with_point_distance(
    ax, ay, bx, by, range_a, range_b, seed, now, faulted
):
    medium, a, b = build_pair(ax, ay, bx, by, range_a, range_b, seed, now)
    if faulted:
        medium.set_link_fault(ScaledLinkFault())
    up = not faulted or (a.id + b.id) % 2 == 0
    factor = 1.0 if up else 0.5
    d = a.position(now).distance_to(b.position(now))
    reach_a, reach_b = a.transmission_range, b.transmission_range

    assert a.distance_to(b, now) == d == b.distance_to(a, now)
    both_ways = d <= reach_a and d <= reach_b
    assert medium.can_transmit(a.id, b.id, now) == (d <= reach_a and up)
    assert medium.can_transmit(b.id, a.id, now) == (d <= reach_b and up)
    limit = min(reach_a, reach_b)
    margin = 0.0 if d >= limit else (1.0 - d / limit) * factor
    assert medium.link_quality(a.id, b.id, now) == margin
    assert medium.link_quality(b.id, a.id, now) == margin
    assert medium.neighbors(a.id, now) == ((b.id,) if both_ways else ())


def test_exactly_on_the_range_limit():
    """A 3-4-5 triangle: reachable at 5.0 m, with zero margin."""
    medium = WirelessMedium()
    medium.add_node(Node(1, NodeRole.SENSOR, StaticMobility(Point(0, 0)), 5.0))
    medium.add_node(Node(2, NodeRole.SENSOR, StaticMobility(Point(3, 4)), 9.0))
    assert medium.node(1).distance_to(medium.node(2), 0.0) == 5.0
    assert medium.can_transmit(1, 2, 0.0) and medium.can_transmit(2, 1, 0.0)
    assert medium.neighbors(1, 0.0) == (2,)
    assert medium.link_quality(1, 2, 0.0) == 0.0


def test_liveness_gates_frames_but_not_the_sensed_margin():
    medium = WirelessMedium()
    medium.add_node(Node(1, NodeRole.SENSOR, StaticMobility(Point(0, 0)), 50.0))
    medium.add_node(Node(2, NodeRole.SENSOR, StaticMobility(Point(20, 0)), 50.0))
    medium.node(2).failed = True
    assert not medium.can_transmit(1, 2, 0.0)
    assert not medium.can_transmit(2, 1, 0.0)
    assert medium.link_quality(1, 2, 0.0) == 1.0 - 20.0 / 50.0


class ThirdsLinkFault:
    """A link whose id sum is divisible by three is down and sensed at
    half margin."""

    def link_up(self, src_id, dst_id, now):
        return (src_id + dst_id) % 3 != 0

    def quality_factor(self, src_id, dst_id, now):
        return 0.5 if (src_id + dst_id) % 3 == 0 else 1.0


#: One node of a world: where it starts, whether it walks, its range
#: (``None`` = exactly its distance to node 0) and how it is unusable.
node_specs = st.tuples(
    coords, coords, st.booleans(), range_or_exact,
    st.sampled_from([None, None, None, "failed", "battery"]),
)


def build_world(specs, seed, now, faulted, max_speed=30.0, medium=None):
    """Node 0 and its peers 1..n, exactly as drawn, registered with
    ``medium`` (a fresh one by default): the medium and the fault
    installed in it (``None`` unless ``faulted``).  Walkers take the
    keyed draws of their node id, so two worlds from one draw hold the
    same trajectories however differently they are queried."""

    def mobilities():
        legs = KeyedStream(random.Random(seed))
        return [
            RandomWaypoint(Point(x, y), 300.0, max_speed, legs.of(node_id))
            if walks else StaticMobility(Point(x, y))
            for node_id, (x, y, walks, _, _) in enumerate(specs)
        ]

    # Distances for the "range == distance" draws come from a scratch
    # copy of the walkers, so the real ones are untouched until queried.
    at_now = [m.position(now) for m in mobilities()]
    if medium is None:
        medium = WirelessMedium()
    for node_id, mobility in enumerate(mobilities()):
        _, _, _, reach, state = specs[node_id]
        if reach is None:
            reach = at_now[0].distance_to(at_now[node_id or 1]) or 1.0
        node = Node(
            node_id, NodeRole.SENSOR, mobility, reach,
            battery_joules=1.0 if state == "battery" else None,
        )
        node.failed = state == "failed"
        if state == "battery":
            node.drain(1.0)
        medium.add_node(node)
    fault = ThirdsLinkFault() if faulted else None
    medium.set_link_fault(fault)
    return medium, fault


worlds = st.tuples(
    st.lists(node_specs, min_size=2, max_size=6),
    st.integers(0, 1000),
    st.sampled_from([0.0, 0.25, 7.5, 60.0]),
    st.booleans(),
)


#: The node axis of ``link_margins_each``: which nodes (index modulo
#: the world's size) are asked about, in order; repeats and nodes that
#: are also peers included.
node_axes = st.lists(st.integers(0, 7), max_size=5)


@PROFILE
@given(worlds, node_axes)
def test_link_margins_is_the_composition_it_replaces(world, axis):
    specs, seed, now, faulted = world
    peers = list(range(1, len(specs)))
    nodes = [index % len(specs) for index in axis]

    medium, _ = build_world(specs, seed, now, faulted)
    expected = []
    for node in nodes:
        covered = sum(
            1
            for peer in peers
            if medium.can_transmit(peer, node, now)
            and medium.can_transmit(node, peer, now)
        )
        margins = (
            [medium.link_quality(node, peer, now) for peer in peers]
            if covered else []
        )
        expected.append((covered, margins))

    batched, _ = build_world(specs, seed, now, faulted)
    assert batched.link_margins_each(nodes, peers, now) == expected

    single, _ = build_world(specs, seed, now, faulted)
    assert [
        single.link_margins_each((n,), peers, now)[0] for n in nodes
    ] == expected


@PROFILE
@given(worlds)
def test_reachable_is_the_filter_it_replaces(world):
    specs, seed, now, faulted = world
    peers = list(range(1, len(specs)))

    medium, _ = build_world(specs, seed, now, faulted)
    origin = medium.node(0)
    expected = [
        (peer, origin.distance_to(medium.node(peer), now))
        for peer in peers
        if medium.can_transmit(0, peer, now)
    ]

    batched, _ = build_world(specs, seed, now, faulted)
    assert batched.reachable(0, peers, now) == expected
    assert batched.can_transmit(0, 1, now) == bool(
        expected and expected[0][0] == 1
    )


#: An id a world is asked about: one of its nodes, or (past its size)
#: one it does not hold.
asked_ids = st.integers(0, 7)


def answer_or_error(question, *args):
    """``question(*args)``, or the ``NetworkError`` message it raised."""
    try:
        return question(*args)
    except NetworkError as exc:
        return ("NetworkError", str(exc))


@PROFILE
@given(worlds, asked_ids, asked_ids)
def test_can_transmit_is_reachable_asked_about_one_pair(world, src, dst):
    specs, seed, now, faulted = world
    medium, _ = build_world(specs, seed, now, faulted)
    oracle, _ = build_world(specs, seed, now, faulted)
    expected = answer_or_error(
        lambda: bool(oracle.reachable(src, [dst], now))
    )
    assert answer_or_error(medium.can_transmit, src, dst, now) == expected


@PROFILE
@given(worlds, asked_ids, st.lists(asked_ids, max_size=5))
def test_link_margins_is_link_quality_per_peer(world, src, peers):
    specs, seed, now, faulted = world
    medium, _ = build_world(specs, seed, now, faulted)
    oracle, _ = build_world(specs, seed, now, faulted)

    def per_peer():
        oracle.node(src)  # resolved even when there are no peers
        return [oracle.link_quality(src, peer, now) for peer in peers]

    expected = answer_or_error(per_peer)
    assert answer_or_error(medium.link_margins, src, peers, now) == expected


class OneWayFade:
    """Every link up, its sensed margin scaled by a factor that depends
    on which end asks: ``(a, b)`` and ``(b, a)`` differ."""

    def link_up(self, src_id, dst_id, now):
        return True

    def quality_factor(self, src_id, dst_id, now):
        return ((7 * src_id + dst_id) % 5 + 1) / 8.0


@PROFILE
@given(worlds, asked_ids, st.booleans())
def test_margins_at_reachable_distances_are_link_quality(world, src, one_way):
    """What the embedding asks: ``link_margins_at`` from the distance
    ``reachable`` returned is ``link_quality`` of the pair asked from
    either end, the fault factor in the orientation given."""
    specs, seed, now, faulted = world
    medium, _ = build_world(specs, seed, now, faulted)
    oracle, _ = build_world(specs, seed, now, faulted)
    if one_way:
        medium.set_link_fault(OneWayFade())
        oracle.set_link_fault(OneWayFade())
    src %= len(specs)
    reached = medium.reachable(src, range(len(specs)), now)
    table = medium.node_table
    dsts = [table[dst] for dst, _ in reached]
    distances = [distance for _, distance in reached]
    assert medium.link_margins_at(table[src], dsts, distances, now) == [
        oracle.link_quality(src, dst, now) for dst, _ in reached
    ]
    for dst, distance in reached:
        assert medium.link_margins_at(
            table[dst], (table[src],), (distance,), now
        ) == [oracle.link_quality(dst, src, now)]


def test_batched_forms_reject_unknown_ids():
    medium, _ = build_world(
        [(0.0, 0.0, False, 50.0, None), (10.0, 0.0, False, 50.0, None)],
        seed=0, now=0.0, faulted=False,
    )
    with pytest.raises(NetworkError, match="unknown node id 9"):
        medium.reachable(0, [1, 9], 0.0)
    with pytest.raises(NetworkError, match="unknown node id 9"):
        medium.reachable(9, [1], 0.0)
    with pytest.raises(NetworkError, match="unknown node id 9"):
        medium.link_margins_each([9], [1], 0.0)
    with pytest.raises(NetworkError, match="unknown node id 9"):
        medium.link_margins_each([0, 9], [1], 0.0)
    with pytest.raises(NetworkError, match="unknown node id 9"):
        medium.link_margins_each([0], [1, 9], 0.0)
    with pytest.raises(NetworkError, match="unknown node id 9"):
        medium.link_margins(9, [], 0.0)
    with pytest.raises(NetworkError, match="unknown node id 9"):
        medium.link_margins(0, [1, 9], 0.0)
    with pytest.raises(NetworkError, match="unknown node id 9"):
        medium.can_transmit(9, 1, 0.0)
    with pytest.raises(NetworkError, match="unknown node id 9"):
        medium.can_transmit(0, 9, 0.0)

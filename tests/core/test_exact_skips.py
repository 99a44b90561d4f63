"""The two skips a speed bound licenses, against the scans they skip.

Nothing pins read order any more (``tests/net/test_order_independence``),
so a caller may leave out any read it can prove useless.  Two do:

* a weak-link replacement (``TopologyMaintenance._find_stronger``)
  looks only for a candidate that holds every Kautz neighbour above
  the floor, dropping each at its first failing link and gathering
  from one anchor's neighbourhood when the snapshot cannot have missed
  a winner.  Oracle: the full scan's pick (``_find_candidate``) put
  through the rule ``_replace`` used to apply to it — full coverage and
  every margin strictly above the floor.
* entry ranking (``ReferRouter._ranked_members``) asks ``reachable``
  only about the members near enough to matter until a time the speed
  bounds give.  Oracle: ``reachable`` over all members.

Worlds are ``test_medium_geometry.build_world``'s — asymmetric ranges,
a range exactly equal to a distance, failed / flat-battery nodes, a
fault installed — with walkers at 30 m/s (which break the snapshot
condition: candidates are gathered around every anchor) and, in a
long-range variant, at 2 m/s (which keep it).
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.cell import EmbeddedCell
from repro.core.maintenance import TopologyMaintenance
from repro.core.routing import ReferRouter
from repro.kautz.graph import KautzGraph
from repro.kautz.namespace import kautz_distance
from repro.kautz.strings import KautzString
from repro.net.medium import NEAR_MARGIN
from repro.net.mobility import StaticMobility
from repro.net.network import WirelessNetwork
from repro.net.node import Node, NodeRole
from repro.sim.core import Simulator
from repro.util.geometry import Point
from repro.wsan.deployment import DeploymentPlan
from repro.wsan.duty_cycle import DutyCycleManager
from tests.net.test_medium_geometry import build_world, range_or_exact

PROFILE = settings(max_examples=300, deadline=None, derandomize=True)

nearby = st.floats(min_value=0.0, max_value=120.0, allow_nan=False)
node_specs = st.tuples(
    nearby, nearby, st.booleans(), range_or_exact,
    st.sampled_from([None, None, None, None, "failed", "battery"]),
)
#: Long ranges only, so that with slow walkers the snapshot condition
#: (drift below ``floor`` times the *shortest* range) holds.
long_range_specs = st.tuples(
    nearby, nearby, st.booleans(), st.floats(60.0, 200.0),
    st.sampled_from([None, None, None, None, "failed", "battery"]),
)


class Approaching:
    """Heads for the origin at exactly its speed bound."""

    def __init__(self, start_x, max_speed):
        self._start_x = start_x
        self.max_speed = max_speed

    def position(self, now):
        return Point(max(0.0, self._start_x - self.max_speed * now), 0.0)


def world(specs, seed, now, faulted, max_speed=30.0):
    network = WirelessNetwork(Simulator(), random.Random(0))
    build_world(specs, seed, now, faulted, max_speed, medium=network.medium)
    return network


def maintenance_over(network, members):
    return TopologyMaintenance(
        network, [], DutyCycleManager(network.medium.node_ids()),
        random.Random(0),
        is_member=members.__contains__,
        claim=members.add, release=members.discard,
    )


def full_scan_pick(maintenance, anchors, now, floor):
    """What a weak-link replacement did before it had a scan of its
    own: the full scan's best, refused unless it covers every anchor
    and clears the floor."""
    found = maintenance._find_candidate(anchors, now)
    if found is None or found[1] != len(anchors):
        return None
    medium = maintenance.network.medium
    weakest = min(medium.link_quality(found[0], nb, now) for nb in anchors)
    return found[0] if weakest > floor else None


#: ``None``: exactly the weakest margin of the full scan's pick — the
#: strict ``>`` must refuse it.
floors = st.sampled_from([0.0, 0.05, 0.15, 0.15, 0.4, None])


def assert_weak_link_scan_is_exact(network, anchor_count, now, floor):
    size = len(network.medium.node_table)
    anchors = list(range(min(anchor_count, size - 1)))
    maintenance = maintenance_over(network, set(anchors))
    if floor is None:
        found = maintenance._find_candidate(anchors, now)
        floor = 0.15 if found is None else min(
            network.medium.link_quality(found[0], nb, now) for nb in anchors
        )
    expected = full_scan_pick(maintenance, anchors, now, floor)
    assert maintenance._find_stronger(anchors, now, floor) == expected
    return expected


@PROFILE
@given(
    st.lists(node_specs, min_size=2, max_size=9), st.integers(0, 1000),
    st.sampled_from([0.0, 0.24, 7.5, 60.0]), st.booleans(),
    st.integers(1, 4), floors,
)
def test_weak_link_scan_picks_what_the_full_scan_would(
    specs, seed, now, faulted, anchor_count, floor
):
    network = world(specs, seed, now, faulted)
    assert_weak_link_scan_is_exact(network, anchor_count, now, floor)


@PROFILE
@given(
    st.lists(long_range_specs, min_size=2, max_size=9), st.integers(0, 1000),
    st.sampled_from([0.0, 7.5, 60.0]), st.booleans(),
    st.integers(1, 4), st.sampled_from([0.15, 0.15, 0.4, None]),
)
def test_weak_link_scan_from_one_anchors_stale_snapshot(
    specs, seed, bucket_start, faulted, anchor_count, floor
):
    """Slow walkers: candidates come from the first anchor's tuple
    alone — computed at the bucket's start, read at its very end."""
    network = world(specs, seed, bucket_start, faulted, max_speed=2.0)
    medium = network.medium
    assert medium.snapshot_covers(0.15)  # 2 * 2 m/s * 0.25 s < 0.15 * 60 m
    medium.neighbors(0, bucket_start, require_usable=False)
    refreshes = medium.refreshes
    assert_weak_link_scan_is_exact(
        network, anchor_count, bucket_start + 0.249, floor
    )
    assert medium.refreshes == refreshes  # same bucket, same snapshot


def test_a_fast_walker_is_found_through_another_anchors_tuple():
    """Why the condition is there: at 400 m/s a walker outside the
    first anchor's range when the snapshot was taken holds both
    anchors strongly a quarter of a second later.  Only the second
    anchor's tuple has it."""
    network = WirelessNetwork(Simulator(), random.Random(0))
    for node_id, mobility in enumerate(
        [StaticMobility(Point(0, 0)), StaticMobility(Point(60, 0)),
         Approaching(155.0, 400.0)]
    ):
        network.add_node(Node(node_id, NodeRole.SENSOR, mobility, 100.0))
    medium = network.medium
    assert medium.neighbors(0, 0.0) == (1,) and medium.neighbors(1, 0.0) == (0, 2)
    maintenance = maintenance_over(network, {0, 1})
    assert not medium.snapshot_covers(0.15)
    assert full_scan_pick(maintenance, [0, 1], 0.24, 0.15) == 2
    assert maintenance._find_stronger([0, 1], 0.24, 0.15) == 2


def test_snapshot_condition_is_strict_and_needs_declared_speeds():
    network = WirelessNetwork(Simulator(), random.Random(0))
    medium = network.medium

    def add(node_id, mobility, reach):
        medium.add_node(Node(node_id, NodeRole.SENSOR, mobility, reach))

    class Walker(StaticMobility):
        is_static = False

    slow, fast = Walker(Point(0, 0)), Walker(Point(0, 0))
    slow.max_speed, fast.max_speed = 29.0, 30.0
    add(0, StaticMobility(Point(0, 0)), 250.0)
    add(1, slow, 100.0)
    assert medium.snapshot_covers(0.15)  # 14.5 m of drift against 15 m
    add(2, fast, 100.0)
    assert not medium.snapshot_covers(0.15)  # 15 m: exactly on the edge
    assert medium.snapshot_covers(0.16)
    add(3, StaticMobility(Point(0, 0)), 10.0)
    assert not medium.snapshot_covers(0.16)  # the shortest range counts

    class Undeclared:
        def position(self, now):
            return Point(0, 0)

    add(4, Undeclared(), 1000.0)
    assert not medium.snapshot_covers(1.0)  # unbounded: never


# -- the near-list ----------------------------------------------------------

KIDS = list(KautzGraph(2, 3).nodes())


def ranked_over_all_members(router, node_id, cell, now, dest_kid):
    """``_ranked_members`` as it was: every member asked, every packet."""

    def rank(entry):
        member, distance = entry
        return (kautz_distance(cell.kid_of(member), dest_kid), distance)

    reachable = router.network.medium.reachable(node_id, cell.member_ids, now)
    return [member for member, _ in sorted(reachable, key=rank)]


#: One step: how far time moves first (never backwards), then what
#: happens — a source (index modulo the world) asks, a vertex (index
#: modulo the members) is handed to a non-member, or a node flips
#: between failed and alive.
near_steps = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.01, 0.1, 0.3, 1.0, 4.0]),
        st.sampled_from(["ask", "ask", "ask", "reassign", "flip"]),
        st.integers(0, 11),
    ),
    min_size=4, max_size=30,
)


@PROFILE
@given(
    st.lists(node_specs, min_size=3, max_size=10), st.integers(0, 1000),
    st.booleans(), st.sampled_from([2.0, 30.0]), near_steps,
)
def test_near_list_ranking_is_reachable_over_all_members(
    specs, seed, faulted, max_speed, script
):
    network = world(specs, seed, 0.0, faulted, max_speed)
    size = len(specs)
    cell = EmbeddedCell(0, KautzGraph(2, 3))
    for node_id in range(0, size, 2):  # every other node is a member
        cell.assign(KIDS[node_id // 2], node_id)
    router = ReferRouter(network, DeploymentPlan(300.0, [], [], []), [cell])
    dest_kid = KIDS[0]
    now = 0.0
    for advance, action, index in script:
        now += advance
        if action == "ask":
            source = index % size
            assert router._ranked_members(source, cell, now, dest_kid) == (
                ranked_over_all_members(router, source, cell, now, dest_kid)
            )
        elif action == "reassign":
            outsiders = [n for n in range(size) if not cell.holds(n)]
            if outsiders:
                kid = cell.assigned_kids[index % len(cell.assigned_kids)]
                cell.reassign(kid, outsiders[index % len(outsiders)])
        else:
            node = network.node(index % size)
            node.failed = not node.failed


def test_near_list_ends_before_the_fastest_outsider_can_arrive():
    """A member just outside the list, closing at exactly its bound on
    a source closing at exactly its own: the list must be gone by the
    time it is in range (a bound halved keeps the list twice as long
    and misses it)."""
    network = WirelessNetwork(Simulator(), random.Random(0))
    reach = 100.0
    outside = (1.0 + NEAR_MARGIN) * reach + 0.5
    # The source walks from 0 toward the member's side at 2 m/s: in the
    # member's frame, a source at rest and a member closing at 10 m/s.
    network.add_node(Node(0, NodeRole.SENSOR, Approaching(0.0, 2.0), reach))
    network.add_node(Node(1, NodeRole.SENSOR, Approaching(50.0, 0.0), reach))
    network.add_node(Node(2, NodeRole.SENSOR, Approaching(outside, 8.0), reach))
    cell = EmbeddedCell(0, KautzGraph(2, 3))
    cell.assign(KIDS[0], 1)
    cell.assign(KIDS[1], 2)
    router = ReferRouter(network, DeploymentPlan(300.0, [], [], []), [cell])
    until, ids = network.medium.near(0, cell.member_ids, 0.0)
    assert ids == [1]
    assert until == NEAR_MARGIN * reach / (8.0 + 2.0)  # 2 s
    arrival = (outside - reach) / 8.0  # 2.56 s: the source never moved
    assert router._ranked_members(0, cell, 0.0) == [1]
    assert router._ranked_members(0, cell, until - 0.01) == [1]
    assert router._ranked_members(0, cell, arrival + 0.01) == [1, 2]


def test_near_list_is_not_kept_for_a_model_without_a_speed_bound():
    network = WirelessNetwork(Simulator(), random.Random(0))

    class Teleporting:
        def position(self, now):
            return Point(500.0 if now < 1.0 else 10.0, 0.0)

    network.add_node(Node(0, NodeRole.SENSOR, StaticMobility(Point(0, 0)), 100.0))
    network.add_node(Node(1, NodeRole.SENSOR, Teleporting(), 100.0))
    cell = EmbeddedCell(0, KautzGraph(2, 3))
    cell.assign(KIDS[0], 1)
    router = ReferRouter(network, DeploymentPlan(300.0, [], [], []), [cell])
    assert network.medium.near(0, [1], 0.5) == (0.5, [])
    assert router._ranked_members(0, cell, 0.5) == []
    assert router._ranked_members(0, cell, 1.0) == [1]


# -- the hand-placed world ----------------------------------------------------
#
# Layout (metres; range 100 unless noted).  Node 0 holds KID 012; its
# Kautz neighbours 120, 121, 101 are nodes 1, 2, 3.
#
#     id  where        note
#      0  (30, 95)     the vertex under test; 99.6 m from node 1 (weak)
#      1  (0, 0)       Kautz neighbour
#      2  (60, 0)      Kautz neighbour
#      3  (30, 50)     Kautz neighbour
#      4  (30, 20)     candidate covering all three
#      5  (30, -30)    range 45: hears node 3 but cannot reach it
#      6  (120, 0)     covers node 2 only
#      7  (30, 10)     actuator, range 250: never a candidate
#      8  (31, 21)     failed sensor
#      9  (29, 19)     sensor already a member elsewhere
#     10  (-100, 0)    exactly 100 m from node 1: in range, zero margin

PLACEMENT = {
    0: (30.0, 95.0, 100.0, NodeRole.SENSOR),
    1: (0.0, 0.0, 100.0, NodeRole.SENSOR),
    2: (60.0, 0.0, 100.0, NodeRole.SENSOR),
    3: (30.0, 50.0, 100.0, NodeRole.SENSOR),
    4: (30.0, 20.0, 100.0, NodeRole.SENSOR),
    5: (30.0, -30.0, 45.0, NodeRole.SENSOR),
    6: (120.0, 0.0, 100.0, NodeRole.SENSOR),
    7: (30.0, 10.0, 250.0, NodeRole.ACTUATOR),
    8: (31.0, 21.0, 100.0, NodeRole.SENSOR),
    9: (29.0, 19.0, 100.0, NodeRole.SENSOR),
    10: (-100.0, 0.0, 100.0, NodeRole.SENSOR),
}


class FadeFromTwo:
    """From t = 2 the 4<->1 link is in a deep fade (down, zero margin)."""

    def _faded(self, src_id, dst_id, now):
        return now >= 2.0 and {src_id, dst_id} == {4, 1}

    def link_up(self, src_id, dst_id, now):
        return not self._faded(src_id, dst_id, now)

    def quality_factor(self, src_id, dst_id, now):
        return 0.0 if self._faded(src_id, dst_id, now) else 1.0


def hand_placed_world():
    rng = random.Random(1)
    network = WirelessNetwork(Simulator(), rng)
    for node_id, (x, y, reach, role) in PLACEMENT.items():
        network.add_node(
            Node(node_id, role, StaticMobility(Point(x, y)), reach)
        )
    network.node(8).failed = True
    cell = EmbeddedCell(0, KautzGraph(2, 3))
    kid = KautzString.parse("012", 2)
    for text, node_id in (("012", 0), ("120", 1), ("121", 2), ("101", 3)):
        cell.assign(KautzString.parse(text, 2), node_id)
    members = {0, 1, 2, 3, 9}
    maintenance = TopologyMaintenance(
        network, [cell], DutyCycleManager(PLACEMENT), rng,
        is_member=members.__contains__,
        claim=members.add, release=members.discard,
    )
    network.medium.set_link_fault(FadeFromTwo())
    return network, cell, kid, maintenance


def test_both_scans_find_the_one_full_cover_on_the_hand_placed_world():
    network, cell, kid, maintenance = hand_placed_world()
    assert maintenance._find_candidate([1, 2, 3], 1.0) == (4, 3)
    assert maintenance._find_stronger([1, 2, 3], 1.0, 0.15) == 4
    # Node 4's weakest link (to node 3, 30 m of 100) has margin 0.7.
    assert maintenance._find_stronger([1, 2, 3], 1.0, 0.7) is None
    # Once 4<->1 fades node 4 covers two; partial covers are the full
    # scan's to take, never the weak-link scan's.
    assert maintenance._find_candidate([1, 2, 3], 2.0) == (4, 2)
    assert maintenance._find_stronger([1, 2, 3], 2.0, 0.0) is None


def test_weak_then_broken_vertex_on_the_hand_placed_world():
    network, cell, kid, maintenance = hand_placed_world()
    # Weak link 0<->1 (margin 0.004): replaced by candidate 4.
    maintenance._check_node(cell, kid, 1.0)
    assert cell.node_of(kid) == 4
    assert maintenance.stats.replacements == 1
    # The 4<->1 fade breaks the vertex while node 4 is still alive:
    # the live-but-degraded branch counts the edges it still covers
    # (two) and hands the vertex back to node 0, which covers three.
    maintenance._check_node(cell, kid, 2.0)
    assert cell.node_of(kid) == 0
    assert maintenance.stats.replacements == 2
    assert maintenance.stats.failed_replacements == 0


def test_entry_ranking_on_the_hand_placed_world():
    network, cell, kid, maintenance = hand_placed_world()
    router = ReferRouter(network, DeploymentPlan(300.0, [], [], []), [cell])
    # Node 4 reaches all four; 1 and 2 tie at 36.06 m and keep their order.
    assert router._ranked_members(4, cell, 1.0) == [3, 1, 2, 0]
    # Ranked by Kautz hops to 121 (node 2) first.
    dest = KautzString.parse("121", 2)
    assert router._ranked_members(4, cell, 1.0, dest) == [2, 0, 3, 1]
    # Node 5 (range 45) reaches 1 and 2 only; a member that fails after
    # the near-list was made is dropped at once; node 10 sits at
    # exactly 100 m.
    assert router._ranked_members(5, cell, 1.0) == [1, 2]
    network.node(2).failed = True
    assert router._ranked_members(5, cell, 1.0) == [1]
    assert router._ranked_members(10, cell, 1.0) == [1]
    # From t = 2 the 4<->1 fade hides member 1 from node 4.
    assert router._ranked_members(4, cell, 2.0) == [3, 0]

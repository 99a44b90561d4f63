"""REFER's four entry choices against the keyed forms they replace.

Each choice picks by distance with a first-in-input-order tie-break:

* ``DeploymentPlan.cell_of_point`` — the cell of the nearest centroid;
* ``ReferRouter._nearest_actuator`` — the cell's nearest (live) actuator;
* ``ReferRouter._ranked_members`` — in-range members by remaining Kautz
  hops, then distance;
* the entry-relay fallback of ``ReferRouter._enter_and_route`` — the
  nearest member, then the three relays nearest to it.

The oracles are those choices as ``min``/``sorted`` with a ``key``
lambda over ``Point.distance_to``, kept here verbatim.  Worlds put
nodes on a coarse grid, so that equal distances are common, and assign
members in a drawn order, so that input order is not id order; they
hold failed nodes, flat batteries and a link fault.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.cell import EmbeddedCell
from repro.core.routing import ReferRouter
from repro.kautz.graph import KautzGraph
from repro.kautz.namespace import kautz_distance
from repro.net.mobility import RandomWaypoint, StaticMobility
from repro.net.network import WirelessNetwork
from repro.net.node import Node, NodeRole
from repro.net.packet import Packet, PacketKind
from repro.sim.core import Simulator
from repro.util.geometry import Point
from repro.util.rng import KeyedStream
from repro.wsan.deployment import Cell, DeploymentPlan
from tests.net.test_medium_geometry import ThirdsLinkFault

PROFILE = settings(max_examples=300, deadline=None, derandomize=True)

KIDS = list(KautzGraph(2, 3).nodes())

#: Grid coordinates (equal distances are common) or any coordinate.
grid = st.sampled_from([0.0, 30.0, 40.0, 60.0, 80.0, 120.0])
coord = st.one_of(grid, grid, st.floats(0.0, 150.0, allow_nan=False))
points = st.builds(Point, coord, coord)

#: One node: where it is, whether it walks, its role and how it is
#: unusable.
node_specs = st.tuples(
    points, st.booleans(), st.sampled_from(list(NodeRole)),
    st.sampled_from([None, None, None, "failed", "battery"]),
)


# -- the oracles: the keyed forms, as they were ---------------------------


def cell_of_point_oracle(plan, point):
    return min(plan.cells, key=lambda c: c.centroid.distance_to(point))


def nearest_actuator_oracle(router, cell, position, now):
    actuators = [cell.node_of(kid) for kid in cell.actuator_kids]
    if router._healer is not None:
        live = [a for a in actuators if a not in router._healer.suspected]
        if live:
            actuators = live
    return min(
        actuators,
        key=lambda a: router.network.node(a).position(now).distance_to(
            position
        ),
    )


def ranked_members_oracle(router, node_id, cell, now, dest_kid):
    def rank(entry):
        member, distance = entry
        remaining = 0
        if dest_kid is not None:
            remaining = kautz_distance(cell.kid_of(member), dest_kid)
        return (remaining, distance)

    reachable = router.network.medium.reachable(node_id, cell.member_ids, now)
    return [member for member, _ in sorted(reachable, key=rank)]


def entry_relays_oracle(network, source_id, cell, now):
    """The relays the fallback tries, in order, or its drop reason."""
    position = network.node(source_id).position(now)
    nearest_member = min(
        cell.member_ids,
        key=lambda m: network.node(m).position(now).distance_to(position),
        default=None,
    )
    if nearest_member is None:
        return "no-cell-member"
    target_pos = network.node(nearest_member).position(now)
    relays = [
        nb
        for nb in network.neighbors(source_id)
        if network.node(nb).is_sensor and not cell.holds(nb)
    ]
    if not relays:
        return "no-entry-relay"
    return sorted(
        relays,
        key=lambda r: network.node(r).position(now).distance_to(target_pos),
    )[:3]


# -- worlds -------------------------------------------------------------------


class Suspecting:
    """A healer stand-in: only its ``suspected`` set is read here."""

    def __init__(self, suspected):
        self.suspected = suspected


def build_network(specs, seed, reach, faulted):
    network = WirelessNetwork(Simulator(), random.Random(seed))
    legs = KeyedStream(random.Random(seed))
    for node_id, (point, walks, role, state) in enumerate(specs):
        mobility = (
            RandomWaypoint(point, 150.0, 20.0, legs.of(node_id))
            if walks else StaticMobility(point)
        )
        node = Node(
            node_id, role, mobility, reach,
            battery_joules=1.0 if state == "battery" else None,
        )
        node.failed = state == "failed"
        if state == "battery":
            node.drain(1.0)
        network.add_node(node)
    network.medium.set_link_fault(ThirdsLinkFault() if faulted else None)
    return network


def build_cell(members, actuators=()):
    """A cell holding ``members`` in the order given; the first
    ``len(actuators)`` vertices go to ``actuators`` as actuator KIDs."""
    cell = EmbeddedCell(0, KautzGraph(2, 3))
    for index, node_id in enumerate(actuators):
        cell.assign(KIDS[index], node_id, actuator=True)
    for index, node_id in enumerate(members, len(actuators)):
        cell.assign(KIDS[index], node_id)
    return cell


def router_for(network, cell):
    return ReferRouter(network, DeploymentPlan(150.0, [], [], []), [cell])


# -- cell_of_point ------------------------------------------------------------


@PROFILE
@given(st.lists(points, min_size=1, max_size=6), points)
def test_cell_of_point_is_the_keyed_min(centroids, point):
    cells = [
        Cell(cid, (0, 1, 2), centroid)
        for cid, centroid in enumerate(centroids, 1)
    ]
    plan = DeploymentPlan(150.0, [], [], cells)
    assert plan.cell_of_point(point) is cell_of_point_oracle(plan, point)


def test_cell_of_point_takes_the_first_of_equally_near_cells():
    cells = [
        Cell(7, (0, 1, 2), Point(0.0, 40.0)),
        Cell(3, (0, 1, 2), Point(40.0, 0.0)),
    ]
    plan = DeploymentPlan(150.0, [], [], cells)
    assert plan.cell_of_point(Point(0.0, 0.0)).cid == 7
    plan.cells.reverse()
    assert plan.cell_of_point(Point(0.0, 0.0)).cid == 3


# -- _nearest_actuator -----------------------------------------------------------


@PROFILE
@given(
    st.lists(node_specs, min_size=1, max_size=6), st.randoms(),
    st.integers(0, 1000), points, st.sampled_from([0.0, 0.5, 3.0]),
    st.sampled_from([None, "some", "all"]),
)
def test_nearest_actuator_is_the_keyed_min(
    specs, order, seed, position, now, suspect
):
    network = build_network(specs, seed, 100.0, faulted=False)
    actuators = list(range(min(len(specs), 3)))
    order.shuffle(actuators)
    cell = build_cell([], actuators)
    router = router_for(network, cell)
    if suspect == "some":
        router.set_can_healer(Suspecting({actuators[0]}))
    elif suspect == "all":
        router.set_can_healer(Suspecting(set(actuators)))
    assert router._nearest_actuator(cell, position, now) == (
        nearest_actuator_oracle(router, cell, position, now)
    )


def test_nearest_actuator_takes_the_first_of_equally_near_ones():
    specs = [
        (Point(0.0, 40.0), False, NodeRole.ACTUATOR, None),
        (Point(40.0, 0.0), False, NodeRole.ACTUATOR, None),
    ]
    network = build_network(specs, 0, 100.0, faulted=False)
    for actuators, first in (([1, 0], 1), ([0, 1], 0)):
        cell = build_cell([], actuators)
        router = router_for(network, cell)
        assert router._nearest_actuator(cell, Point(0.0, 0.0), 0.0) == first


# -- _ranked_members ---------------------------------------------------------------


@PROFILE
@given(
    st.lists(node_specs, min_size=2, max_size=9), st.randoms(),
    st.integers(0, 1000), st.sampled_from([0.0, 0.5, 3.0]), st.booleans(),
    st.sampled_from([None] + KIDS[:4]),
)
def test_ranked_members_is_the_rank_closure(
    specs, order, seed, now, faulted, dest_kid
):
    network = build_network(specs, seed, 60.0, faulted)
    members = list(range(1, len(specs)))
    order.shuffle(members)
    cell = build_cell(members)
    router = router_for(network, cell)
    for source in range(len(specs)):
        assert router._ranked_members(source, cell, now, dest_kid) == (
            ranked_members_oracle(router, source, cell, now, dest_kid)
        )


def test_ranked_members_keep_input_order_among_equals():
    """Members 2 and 1, both one Kautz hop from the destination and
    40 m from the source, rank in the cell's order, not by id."""
    specs = [
        (Point(0.0, 0.0), False, NodeRole.SENSOR, None),
        (Point(0.0, 40.0), False, NodeRole.SENSOR, None),
        (Point(40.0, 0.0), False, NodeRole.SENSOR, None),
    ]
    network = build_network(specs, 0, 60.0, faulted=False)
    cell = EmbeddedCell(0, KautzGraph(2, 3))
    dest = KIDS[0]
    first, second = dest.predecessors()  # both one hop away
    cell.assign(first, 2)
    cell.assign(second, 1)
    assert [kautz_distance(cell.kid_of(m), dest) for m in (1, 2)] == [1, 1]
    router = router_for(network, cell)
    assert router._ranked_members(0, cell, 0.0, dest) == [2, 1]


# -- the entry-relay fallback ---------------------------------------------------------


def fallback_choice(network, cell, source):
    """What ``_enter_and_route`` does from ``source``: the relays it
    tries, a drop reason, or ``"members"`` if a member was in range."""
    router = router_for(network, cell)
    tried = []
    dropped = []
    router._try_relays = lambda src, relays, *rest: tried.append(relays)
    router._enter_via_members = lambda *args: tried.append("members")
    packet = Packet(PacketKind.DATA, 100, source, None, network.sim.now)
    router._enter_and_route(
        source, cell, KIDS[0], packet, None,
        lambda pkt, reason: dropped.append(reason),
    )
    return (tried + dropped)[0]


#: Members far out east (out of every western source's 100 m range);
#: sources and relays in the west.
east = st.builds(Point, st.sampled_from([200.0, 240.0, 280.0]), grid)
far_member_specs = st.tuples(
    east, st.just(False), st.just(NodeRole.SENSOR),
    st.sampled_from([None, None, "failed"]),
)


@PROFILE
@given(
    st.lists(far_member_specs, max_size=4),
    st.lists(node_specs, min_size=1, max_size=8),
    st.randoms(), st.integers(0, 1000), st.booleans(),
)
def test_entry_relay_fallback_is_the_keyed_min_and_sort(
    member_specs, other_specs, order, seed, faulted
):
    specs = other_specs + member_specs
    network = build_network(specs, seed, 100.0, faulted)
    members = list(range(len(other_specs), len(specs)))
    order.shuffle(members)
    cell = build_cell(members)
    for source in range(len(other_specs)):
        choice = fallback_choice(network, cell, source)
        if choice != "members":
            assert choice == entry_relays_oracle(network, source, cell, 0.0)


def test_entry_relay_fallback_breaks_ties_in_input_order():
    """Members 5 and 4 are equally far from the source, and the relays
    are ranked toward the one first in the cell.  Relays 1 and 3 are
    equally near member 5, relays 1 and 3 equally near member 4: each
    pair goes in neighbour order."""
    specs = [
        (Point(0.0, 0.0), False, NodeRole.SENSOR, None),     # source
        (Point(60.0, 60.0), False, NodeRole.SENSOR, None),   # relays ...
        (Point(60.0, -60.0), False, NodeRole.SENSOR, None),
        (Point(-60.0, 60.0), False, NodeRole.SENSOR, None),
        (Point(0.0, -200.0), False, NodeRole.SENSOR, None),  # members
        (Point(0.0, 200.0), False, NodeRole.SENSOR, None),
    ]
    network = build_network(specs, 0, 100.0, faulted=False)
    cell = build_cell([5, 4])
    assert fallback_choice(network, cell, 0) == [1, 3, 2]
    cell = build_cell([4, 5])
    assert fallback_choice(network, cell, 0) == [2, 1, 3]

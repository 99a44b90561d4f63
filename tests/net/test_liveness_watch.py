"""The medium's liveness watch answers as a per-peer ``usable`` filter.

``WirelessMedium`` reads ``usable`` only for the nodes in its watch:
those whose ``failed`` or ``battery_joules`` was ever written, and
those registered failed or metered.  A node outside it has never been
failed or metered, so it is usable unread.  :class:`PerPeerMedium` is
the medium as it stood before the watch, one ``usable`` read per peer
of every tuple; :class:`PerPeerFlood` spreads a flood over it one
``neighbors`` call per forwarder (the ``NeighborsFlood`` oracle of
``test_flood_tuples.py``), so neither reads the watch.  Twin worlds are
driven with the same script and must agree on every neighbour tuple and
every flood: tree, level sizes, energy families and batteries.

The scripts change liveness through each way there is: ``fail_node`` /
``recover_node``, direct ``failed`` writes, the battery-depletion chaos
model metering a node, direct ``battery_joules`` writes (metering,
exhausting and unmetering), and nodes registered failed or metered, all
mid-bucket between cached tuples as well as across buckets.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.models import BatteryDepletionFault
from repro.chaos.spec import FaultSpec
from repro.net.medium import WirelessMedium
from repro.net.mobility import RandomWaypoint, StaticMobility
from repro.net.network import WirelessNetwork
from repro.net.node import Node, NodeRole
from repro.sim.core import Simulator
from repro.util.geometry import Point
from repro.util.rng import KeyedStream
from tests.net.test_flood_tuples import NeighborsFlood, observed


class PerPeerMedium(WirelessMedium):
    """Every ``usable`` tuple filtered by one ``usable`` read per peer."""

    def _compute_neighbors(self, node_id, require_usable):
        peers = super()._compute_neighbors(node_id, False)
        if not require_usable:
            return peers
        table = self.node_table
        return tuple([peer for peer in peers if table[peer].usable])


class PerPeerFlood(NeighborsFlood):
    """``NeighborsFlood`` over a :class:`PerPeerMedium`."""

    def __init__(self, sim, rng):
        super().__init__(sim, rng)
        # Still empty: the one medium, MAC and ``node`` keep pointing
        # at it, now answering with the per-peer filter.
        self.medium.__class__ = PerPeerMedium


#: A node's liveness at registration.
STATES = ("fresh", "fresh", "fresh", "failed", "metered", "exhausted")


def make_node(seed, node_id, state):
    """Node ``node_id`` of world ``seed`` in ``state``: a static or
    walking sensor in a 300 m square with a 100 m range."""
    rng = random.Random(seed * 7919 + node_id)
    start = Point(rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0))
    mobility = (
        RandomWaypoint(
            start, 300.0, 20.0, KeyedStream(random.Random(seed)).of(node_id)
        )
        if rng.random() < 0.5 else StaticMobility(start)
    )
    node = Node(node_id, NodeRole.SENSOR, mobility, 100.0)
    if state == "failed":
        node.failed = True
    elif state == "metered":
        node.battery_joules = rng.uniform(1.0, 12.0)
    elif state == "exhausted":
        node.battery_joules = 1.0
        node.consumed_joules = 1.0
    return node


def build(network_type, seed, states):
    sim = Simulator()
    net = network_type(sim, random.Random(seed))
    for node_id, state in enumerate(states):
        net.add_node(make_node(seed, node_id, state))
    return sim, net


def deplete(net, node_id, seed):
    """One round of the battery-depletion chaos model on ``node_id``."""
    model = BatteryDepletionFault(
        net, random.Random(seed), FaultSpec(kind="battery", count=1),
        lambda: [node_id],
    )
    model._round()


def change(net, action, node_id, seed):
    """Change ``node_id``'s liveness the way ``action`` names."""
    node = net.node(node_id)
    if action == "fail":
        net.fail_node(node_id)
    elif action == "recover":
        net.recover_node(node_id)
    elif action == "flip":
        node.failed = not node.failed
    elif action == "deplete":
        deplete(net, node_id, seed)
    elif action == "meter":
        node.battery_joules = node.consumed_joules + 0.3
    elif action == "exhaust":
        node.consumed_joules += 1.0
        node.battery_joules = node.consumed_joules
    elif action == "unmeter":
        node.battery_joules = None
    else:
        raise AssertionError(action)


def assert_watch_is_exact(net):
    """What the watch relies on: a node outside it is unfailed and
    unmetered."""
    watched = net.medium.watched
    for node_id, node in net.medium.node_table.items():
        if node_id not in watched:
            assert not node.failed and node.battery_joules is None


CHANGES = ("fail", "recover", "flip", "deplete", "meter", "exhaust", "unmeter")

#: One step: time advances (zero, inside the 0.25 s bucket, across it),
#: then a liveness change, a neighbour query, a flood from one or
#: several sources, or a node registered in a drawn state.  Node
#: indices are taken modulo the world's size.
steps = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.05, 0.25]),
        st.sampled_from(
            CHANGES + ("ask", "ask", "flood", "flood", "multi", "add")
        ),
        st.lists(st.integers(0, 80), min_size=1, max_size=3),
        st.integers(0, 5),
    ),
    min_size=1, max_size=12,
)


def drive(seed, states, script):
    """Run ``script`` on the watch and on the per-peer oracle; assert
    agreement throughout.  Returns the two networks."""
    sims, nets = zip(
        build(WirelessNetwork, seed, states),
        build(PerPeerFlood, seed, states),
    )
    now = 0.0
    for advance, action, indices, ttl in script:
        now += advance
        size = len(nets[0].medium.node_table)
        ids = [index % size for index in indices]
        for sim in sims:
            sim.run_until(now)
        if action in CHANGES:
            for net in nets:
                change(net, action, ids[0], seed + ttl)
        elif action == "add":
            state = STATES[ttl % len(STATES)]
            for net in nets:
                net.add_node(make_node(seed, size, state))
        elif action == "ask":
            for node_id in ids:
                asked = [net.neighbors(node_id) for net in nets]
                assert asked[0] == asked[1]
        else:
            sources = ids[:1] if action == "flood" else ids
            spread = [(net, net._spread(sources, ttl)) for net in nets]
            for net, (tree, _) in spread:
                net._charge_forwarders(tree, ttl)
            assert observed(*spread[0]) == observed(*spread[1])
        assert_watch_is_exact(nets[0])
    return nets


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(0, 10_000),
    st.lists(st.sampled_from(STATES), min_size=20, max_size=60),
    steps,
)
def test_the_watch_answers_as_a_per_peer_filter(seed, states, script):
    drive(seed, states, script)


def test_an_unwritten_world_has_an_empty_watch():
    """Nothing written, nothing watched: every tuple is the geometry."""
    _, net = build(WirelessNetwork, 1, ["fresh"] * 40)
    assert not net.medium.watched
    for node_id in range(40):
        assert net.neighbors(node_id) == net.neighbors(
            node_id, require_usable=False
        )
    drive(1, ["fresh"] * 40, [
        (0.0, "flood", [0], 5), (0.0, "ask", [3, 7], 0),
        (0.25, "multi", [5, 9], 5),
    ])


@pytest.mark.parametrize("state", ["failed", "metered", "exhausted"])
def test_a_node_registered_failed_or_metered_is_watched(state):
    _, net = build(WirelessNetwork, 2, ["fresh"] * 30)
    node = make_node(2, 30, state)
    net.add_node(node)
    assert net.medium.watched == {30}
    peers = net.neighbors(30, require_usable=False)
    assert peers
    heard = all(30 in net.neighbors(peer) for peer in peers)
    assert heard == (state == "metered")
    drive(2, ["fresh"] * 30 + [state], [
        (0.0, "flood", [30], 4), (0.0, "flood", [peers[0]], 4),
        (0.05, "ask", list(peers), 0),
    ])


@pytest.mark.parametrize("action", CHANGES)
def test_a_change_mid_bucket_leaves_a_cached_tuple_as_it_was(action):
    """A tuple asked for before the change is the cached object for the
    rest of the bucket; the next bucket's tuple filters the change."""
    seed = 4
    _, net = build(WirelessNetwork, seed, ["fresh"] * 40)
    peer = net.neighbors(0, require_usable=False)[0]
    undo = {"recover": "fail", "unmeter": "exhaust"}.get(action)
    if undo is not None:
        change(net, undo, peer, seed)
    cached = net.neighbors(0)
    assert (peer in cached) == (undo is None)
    change(net, action, peer, seed)
    assert net.neighbors(0) is cached
    net.sim.run_until(0.25)
    assert (peer in net.neighbors(0)) == net.node(peer).usable
    script = [(0.0, "ask", [0], 0), (0.0, action, [peer], 0),
              (0.0, "ask", [0], 0), (0.0, "flood", [0], 3),
              (0.25, "ask", [0], 0), (0.0, "flood", [0], 3)]
    if undo is not None:
        script.insert(0, (0.0, undo, [peer], 0))
    drive(seed, ["fresh"] * 40, script)

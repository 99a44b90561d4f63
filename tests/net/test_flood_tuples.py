"""A flood reads its forwarders' tuples straight from the bucket.

``WirelessNetwork._spread`` takes each forwarder's neighbour tuple from
the mapping :meth:`WirelessMedium.survey` returns and asks
``neighbors`` only on a miss.  :class:`NeighborsFlood` is the spread as
it stood before, one ``network.neighbors`` call per forwarder; it lives
here as the oracle.  Both are driven with the same script on twin
worlds and must agree exactly: the tree in insertion order, the level
sizes, the energy families with their children in first-charge order
(the order nodes were first heard in) and every battery's
``consumed_joules``.

The worlds drain batteries of a few joules, so receptions exhaust nodes
while a flood is still spreading and a tuple computed later leaves them
out; the scripts ask for neighbour tuples before a flood (hits in the
bucket), flood several times per bucket and register nodes mid-bucket.
"""

import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.net.energy import RX_JOULES
from repro.net.mobility import RandomWaypoint, StaticMobility
from repro.net.network import WirelessNetwork
from repro.net.node import Node, NodeRole
from repro.sim.core import Simulator
from repro.util.geometry import Point
from repro.util.rng import KeyedStream
from tests.net.test_energy_handles import ordered_energy


class NeighborsFlood(WirelessNetwork):
    """The spread through ``self.neighbors``, one call per forwarder."""

    def _spread(self, src_ids, ttl):
        tree = {}
        frontier = []
        for src_id in src_ids:
            if self.node(src_id).usable and src_id not in tree:
                tree[src_id] = (0, None)
                frontier.append(src_id)
        level_sizes = [len(frontier)]
        if frontier and ttl:
            self.medium.survey(self.sim.now)
        received = Counter()
        table = self.medium.node_table
        depth = 0
        while frontier and depth < ttl:
            depth += 1
            next_frontier = []
            for node_id in frontier:
                heard = self.neighbors(node_id)
                received.update(heard)
                for nb in heard:
                    table[nb].consumed_joules += RX_JOULES
                    if nb not in tree:
                        tree[nb] = (depth, node_id)
                        next_frontier.append(nb)
            frontier = next_frontier
            level_sizes.append(len(frontier))
        self.energy.charge_rx_counts(received, "flood")
        return tree, level_sizes


def make_node(seed, node_id):
    """Node ``node_id`` of world ``seed``: a static or walking sensor in
    a 300 m square, 100 m range, a battery of a few joules, or failed."""
    rng = random.Random(seed * 7919 + node_id)
    start = Point(rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0))
    mobility = (
        RandomWaypoint(
            start, 300.0, 20.0, KeyedStream(random.Random(seed)).of(node_id)
        )
        if rng.random() < 0.5 else StaticMobility(start)
    )
    node = Node(
        node_id, NodeRole.SENSOR, mobility, 100.0,
        battery_joules=rng.choice([None, rng.uniform(1.0, 12.0)]),
    )
    node.failed = rng.random() < 0.05
    return node


def build(network_type, seed, count):
    sim = Simulator()
    net = network_type(sim, random.Random(seed))
    for node_id in range(count):
        net.add_node(make_node(seed, node_id))
    return sim, net


def observed(net, spread):
    tree, level_sizes = spread
    return (
        list(tree.items()),
        level_sizes,
        ordered_energy(net.registry),
        [node.consumed_joules for node in net.nodes()],
    )


#: One step: time advances (zero, inside the 0.25 s bucket, across it),
#: then a flood from one or several sources, a neighbour query, or a
#: node registered; node indices are taken modulo the world's size.
steps = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.05, 0.25, 1.0]),
        st.sampled_from(["flood", "flood", "multi", "ask", "add"]),
        st.lists(st.integers(0, 80), min_size=1, max_size=3),
        st.integers(0, 5),
    ),
    min_size=1, max_size=8,
)


def drive(seed, count, script):
    """Run ``script`` on both formulations; assert agreement throughout."""
    sims, nets = zip(
        build(WirelessNetwork, seed, count), build(NeighborsFlood, seed, count)
    )
    now = 0.0
    for advance, action, indices, ttl in script:
        now += advance
        size = len(nets[0].nodes())
        sources = [index % size for index in indices]
        for sim in sims:
            sim.run_until(now)
        if action == "add":
            for net in nets:
                net.add_node(make_node(seed, size))
        elif action == "ask":
            for net in nets:
                net.neighbors(sources[0])
                net.neighbors(sources[-1], require_usable=False)
        else:
            srcs = sources[:1] if action == "flood" else sources
            spread = [(net, net._spread(srcs, ttl)) for net in nets]
            for net, (tree, _) in spread:
                net._charge_forwarders(tree, ttl)
            assert observed(*spread[0]) == observed(*spread[1])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10_000), st.integers(20, 60), steps)
def test_the_direct_flood_is_the_neighbors_flood(seed, count, script):
    drive(seed, count, script)


def test_a_node_exhausted_mid_bucket_and_a_node_added_mid_bucket():
    """The property is not vacuous: in one bucket a flood exhausts
    nodes, a later flood's tuples leave them out, and a node registered
    between floods is heard by the next one."""
    _, net = build(WirelessNetwork, 3, 60)
    assert all(node.usable for node in net.nodes() if not node.failed)
    first, _ = net._spread([0], 5)
    exhausted = [
        node.id for node in net.nodes()
        if not node.failed and not node.usable
    ]
    assert exhausted
    net.add_node(Node(60, NodeRole.SENSOR, StaticMobility(
        net.node(0).position(0.0)), 100.0))
    second, _ = net._spread([0], 5)
    assert 60 in second and not set(exhausted) & set(second)
    drive(3, 60, [
        (0.0, "flood", [0], 5), (0.0, "add", [0], 0), (0.0, "flood", [0], 5),
        (0.05, "ask", [0, 7], 0), (0.0, "multi", [7, 0, 3], 5),
    ])

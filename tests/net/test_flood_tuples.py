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

The spread walks each tuple as an int bitmask (bit ``i`` = node ``i``)
and drains an unmetered battery by count at the end, so the later
worlds number their nodes sparsely from an offset (bits cross byte and
word boundaries), and their scripts meter an unmetered node between two
floods of one bucket the way the battery-depletion fault does.
"""

import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.chaos.models import TARGET_FRACTION
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


def dense(k):
    return k


def sparse(k):
    """The ``k``-th id of a sparse world: 1000, 1003, 1006, ..."""
    return 1000 + 3 * k


def wide(k):
    """The ``k``-th id of a sparser world, 61 bits apart from 2**16 - 5."""
    return 65_531 + 61 * k


def build(network_type, seed, count, id_of=dense):
    sim = Simulator()
    net = network_type(sim, random.Random(seed))
    for k in range(count):
        net.add_node(make_node(seed, id_of(k)))
    return sim, net


#: Joules a metered node is given above what it has consumed (see
#: :func:`meter`): from exhausted at the next reception to a few more.
HEADROOM = (0.3, 7.7, 60.3, 250.1)


def meter(node, headroom):
    """Put a meter on ``node`` the way ``BatteryDepletionFault._round``
    does, a battery ``headroom`` joules above its consumption drained
    to ``TARGET_FRACTION`` of capacity: a non-dyadic ``consumed_joules``
    for an unmetered node (a metered one keeps its battery)."""
    if node.battery_joules is None:
        node.battery_joules = node.consumed_joules + headroom
    floor = node.battery_joules * (1.0 - TARGET_FRACTION)
    node.consumed_joules = max(node.consumed_joules, floor)


def observed(net, spread):
    tree, level_sizes = spread
    return (
        list(tree.items()),
        level_sizes,
        ordered_energy(net.registry),
        [node.consumed_joules for node in net.medium.node_table.values()],
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


#: Like ``steps``, with time kept near one bucket and a fifth action:
#: meter the first node named (the last field picks its ``HEADROOM``).
metered_steps = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.05, 0.25]),
        st.sampled_from(["flood", "flood", "multi", "ask", "add", "meter"]),
        st.lists(st.integers(0, 80), min_size=1, max_size=3),
        st.integers(0, 5),
    ),
    min_size=1, max_size=10,
)


def drive(seed, count, script, id_of=dense):
    """Run ``script`` on both formulations; assert agreement throughout.
    Returns the two networks."""
    sims, nets = zip(
        build(WirelessNetwork, seed, count, id_of),
        build(NeighborsFlood, seed, count, id_of),
    )
    now = 0.0
    for advance, action, indices, ttl in script:
        now += advance
        size = len(nets[0].medium.node_table)
        sources = [id_of(index % size) for index in indices]
        for sim in sims:
            sim.run_until(now)
        if action == "add":
            for net in nets:
                net.add_node(make_node(seed, id_of(size)))
        elif action == "meter":
            for net in nets:
                meter(net.node(sources[0]), HEADROOM[ttl % len(HEADROOM)])
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
    return nets


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10_000), st.integers(20, 60), steps)
def test_the_direct_flood_is_the_neighbors_flood(seed, count, script):
    drive(seed, count, script)


def test_a_node_exhausted_mid_bucket_and_a_node_added_mid_bucket():
    """The property is not vacuous: in one bucket a flood exhausts
    nodes, a later flood's tuples leave them out, and a node registered
    between floods is heard by the next one."""
    _, net = build(WirelessNetwork, 3, 60)
    assert all(node.usable for node in net.medium.node_table.values() if not node.failed)
    first, _ = net._spread([0], 5)
    exhausted = [
        node.id for node in net.medium.node_table.values()
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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(0, 10_000), st.integers(20, 60), metered_steps,
    st.sampled_from([dense, sparse, wide]),
)
def test_sparse_ids_and_mid_bucket_meters_flood_like_neighbors(
    seed, count, script, id_of
):
    drive(seed, count, script, id_of)


def test_a_node_metered_between_two_floods_of_one_bucket():
    """An unmetered node heard by a flood is metered as the depletion
    fault meters it; the next flood in the bucket drains it per
    reception from its non-dyadic floor, as the oracle does."""
    _, net = build(WirelessNetwork, 4, 60, sparse)
    first, _ = net._spread([sparse(0)], 5)
    k = next(
        k for k in range(1, 60)
        if sparse(k) in first and net.node(sparse(k)).battery_joules is None
        and net.node(sparse(k)).usable
    )
    nets = drive(4, 60, [
        (0.0, "flood", [0], 5), (0.0, "meter", [k], 3),
        (0.0, "flood", [0], 5), (0.0, "multi", [k, 0], 5),
    ], sparse)
    for net in nets:
        node = net.node(sparse(k))
        assert not (node.consumed_joules * 4).is_integer()
        assert node.consumed_joules > node.battery_joules * (1 - TARGET_FRACTION)


def test_masks_go_with_the_tuples_on_a_mid_bucket_add():
    """A node registered between two floods of one bucket drops the
    bucket's masks with its tuples: the next flood hears it, in the
    oracle's order, and files a new mask that holds it."""
    nets = [
        build(cls, 5, 40, wide)[1] for cls in (WirelessNetwork, NeighborsFlood)
    ]
    source = wide(0)
    for net in nets:
        net._spread([source], 4)
    masks = nets[0].medium.survey(0.0)[1]
    assert source in masks
    late = wide(40)
    spreads = []
    for net in nets:
        net.add_node(Node(late, NodeRole.SENSOR, StaticMobility(
            net.node(source).position(0.0)), 100.0))
        assert not net.medium.survey(0.0)[1]
        spreads.append((net, net._spread([source], 4)))
    assert late in spreads[0][1][0]
    assert masks[source] >> late & 1
    assert observed(*spreads[0]) == observed(*spreads[1])

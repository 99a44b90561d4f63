"""Where a node is and whether a link fades are functions of
``(entity, seed, time)`` — not of who was asked what, when.

Both lazily advanced random processes draw by key: leg ``k`` of a
walker from its node's draws (``wsan.system.build_nodes``), sojourn
``k`` of a Gilbert-Elliott chain from its link's.  So two worlds built
from one seed may be questioned in any order, at any subset of
instants, with look-backs, through the medium or the hooks directly —
and must still hold the same trajectories and the same chains.  This
is the property that replaced the pinned read orders (the ``LinkFault``
call-order contract, the recorded hook sequences, "``_roll`` reads
every walker in registration order"): a caller may skip any read it
can prove useless.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.chaos.models import GilbertElliottLinkFault
from repro.net.mobility import RandomWaypoint
from repro.net.network import WirelessNetwork
from repro.net.node import Node, NodeRole
from repro.sim.core import Simulator
from repro.util.geometry import Point
from repro.util.rng import KeyedStream

PROFILE = settings(max_examples=150, deadline=None, derandomize=True)

#: Instants a script may ask about, in any order: repeats, look-backs
#: and jumps over several legs and sojourns (a 300 m field at 30 m/s is
#: crossed in seconds; sojourns last 2 s and 0.5 s on average).
instants = st.sampled_from([0.0, 0.1, 0.25, 1.0, 1.0, 3.7, 9.0, 20.0, 45.0])

#: One question: what is asked, about which node (or pair), when.
questions = st.lists(
    st.tuples(
        st.sampled_from([
            "position", "link_up", "quality_factor", "can_transmit",
            "link_quality", "neighbors", "contention_at",
        ]),
        st.integers(0, 5), st.integers(0, 5), instants,
    ),
    max_size=30,
)

starts = st.lists(
    st.tuples(st.floats(0.0, 300.0), st.floats(0.0, 300.0)),
    min_size=2, max_size=6,
)


def build(starts, seed):
    """A deployment's walkers and a fade over every link."""
    network = WirelessNetwork(Simulator(), random.Random(0))
    legs = KeyedStream(random.Random(seed))
    for node_id, (x, y) in enumerate(starts):
        walker = RandomWaypoint(Point(x, y), 300.0, 30.0, legs.of(node_id))
        network.add_node(Node(node_id, NodeRole.SENSOR, walker, 150.0))
    fault = GilbertElliottLinkFault(
        network, random.Random(seed + 1),
        mean_good=2.0, mean_bad=0.5, bad_quality=0.5,
    )
    fault.start()
    return network, fault


def ask(network, fault, script):
    medium = network.medium
    size = len(medium)
    for what, a, b, now in script:
        a, b = a % size, b % size
        if a == b:
            b = (a + 1) % size  # a link has two ends
        if what == "position":
            network.node(a).position(now)
        elif what in ("link_up", "quality_factor"):
            getattr(fault, what)(a, b, now)
        elif what in ("can_transmit", "link_quality"):
            getattr(medium, what)(a, b, now)
        elif what == "neighbors":
            medium.neighbors(a, now)
        else:
            medium.contention_at(a, now)


def state_at(network, fault, now):
    """Every position and every link's hooks at ``now``, one fixed order."""
    ids = network.medium.node_ids()
    return (
        [network.node(i).position(now) for i in ids],
        [
            (fault.link_up(a, b, now), fault.quality_factor(a, b, now))
            for a in ids for b in ids if a < b
        ],
    )


@PROFILE
@given(starts, st.integers(0, 1000), questions, questions)
def test_answers_do_not_depend_on_what_was_asked_before(
    starts, seed, one_script, other_script
):
    asked, asked_fault = build(starts, seed)
    other, other_fault = build(starts, seed)
    untouched, untouched_fault = build(starts, seed)
    ask(asked, asked_fault, one_script)
    ask(other, other_fault, other_script)
    # From an instant no script has passed, all three worlds agree —
    # and keep agreeing, legs and sojourns later.
    for now in (45.0, 45.5, 60.0, 200.0):
        expected = state_at(untouched, untouched_fault, now)
        assert state_at(asked, asked_fault, now) == expected
        assert state_at(other, other_fault, now) == expected
    # The same questions left the same chains behind: state, sojourn
    # bounds and sojourn index of every link.
    assert asked_fault._chains == untouched_fault._chains
    assert other_fault._chains == untouched_fault._chains


@PROFILE
@given(starts, st.integers(0, 1000), questions, instants)
def test_a_fade_is_a_function_of_the_link_and_the_instant(
    starts, seed, script, now
):
    """Stronger for the chains, which re-walk on a look-back: whatever
    was asked before, at *any* instant the hooks answer as an untouched
    world does."""
    asked, asked_fault = build(starts, seed)
    untouched, untouched_fault = build(starts, seed)
    ask(asked, asked_fault, script)
    assert state_at(asked, asked_fault, now)[1] == (
        state_at(untouched, untouched_fault, now)[1]
    )


def test_a_deployment_walker_is_its_node_ids_draws_alone():
    """``build_nodes``' keying, spelled out: the same node id under the
    same seed walks the same legs whoever else is deployed, and a
    different id or seed walks others."""

    def walker(seed, node_id):
        legs = KeyedStream(random.Random(seed))
        return RandomWaypoint(Point(5, 5), 100.0, 3.0, legs.of(node_id))

    track = [walker(3, 7).position(t) for t in (10.0, 100.0, 1000.0)]
    crowd = KeyedStream(random.Random(3))
    others = [
        RandomWaypoint(Point(5, 5), 100.0, 3.0, crowd.of(i)) for i in range(9)
    ]
    for t in (1000.0, 10.0, 100.0):  # the crowd read first, out of order
        for other in reversed(others):
            other.position(t)
    assert [others[7].position(t) for t in (1000.0,)] == track[2:]
    assert [walker(3, 7).position(t) for t in (10.0, 100.0, 1000.0)] == track
    assert walker(3, 8).position(100.0) != track[1]
    assert walker(4, 7).position(100.0) != track[1]

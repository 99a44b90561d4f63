"""The order in which maintenance asks the ``LinkFault`` hooks is pinned.

``GilbertElliottLinkFault`` advances its per-link chains lazily, from
one shared RNG stream, *when a hook is called*.  Which pairs are asked,
and in which order, is therefore part of a run's observable behaviour:
``link_up`` must be reached only after the liveness and range tests
pass, ``quality_factor`` only when ``distance < limit``.  This test
replays ``_find_candidate`` and ``_check_node`` on a hand-placed
topology with a recording fault installed and compares the
``(hook, src, dst)`` sequence with the one recorded on the commit
before the geometry primitive was introduced.  The router's entry
ranking (``_ranked_members``) is pinned the same way, against the
commit before the medium's batched forms.

Layout (metres; range 100 unless noted).  Node 0 holds KID 012; its
Kautz neighbours 120, 121, 101 are nodes 1, 2, 3::

    id  where        note
     0  (30, 95)     the vertex under test; 99.6 m from node 1 (weak)
     1  (0, 0)       Kautz neighbour
     2  (60, 0)      Kautz neighbour
     3  (30, 50)     Kautz neighbour
     4  (30, 20)     candidate covering all three
     5  (30, -30)    range 45: hears node 3 but cannot reach it
     6  (120, 0)     covers node 2 only
     7  (30, 10)     actuator, range 250: never a candidate
     8  (31, 21)     failed sensor: filtered by the neighbour query
     9  (29, 19)     sensor already a member elsewhere
    10  (-100, 0)    exactly 100 m from node 1: in range, zero margin
"""

import random

from repro.core.cell import EmbeddedCell
from repro.core.maintenance import TopologyMaintenance
from repro.core.routing import ReferRouter
from repro.kautz.graph import KautzGraph
from repro.kautz.strings import KautzString
from repro.net.mobility import StaticMobility
from repro.net.network import WirelessNetwork
from repro.net.node import Node, NodeRole
from repro.sim.core import Simulator
from repro.util.geometry import Point
from repro.wsan.deployment import DeploymentPlan
from repro.wsan.duty_cycle import DutyCycleManager

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


class RecordingLinkFault:
    """A pure ``LinkFault`` that logs every hook call.

    From t = 2 the 4<->1 link is in a deep fade (down, zero margin).
    """

    def __init__(self):
        self.calls = []

    def _faded(self, src_id, dst_id, now):
        return now >= 2.0 and {src_id, dst_id} == {4, 1}

    def link_up(self, src_id, dst_id, now):
        self.calls.append(("link_up", src_id, dst_id))
        return not self._faded(src_id, dst_id, now)

    def quality_factor(self, src_id, dst_id, now):
        self.calls.append(("quality_factor", src_id, dst_id))
        return 0.0 if self._faded(src_id, dst_id, now) else 1.0


def build_world():
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
        network,
        [cell],
        DutyCycleManager(PLACEMENT),
        rng,
        is_member=members.__contains__,
        claim=members.add,
        release=members.discard,
    )
    fault = RecordingLinkFault()
    network.medium.set_link_fault(fault)
    return network, cell, kid, maintenance, fault


#: Candidates 5, 10 and 6, scanned in that order whichever sensor holds
#: the vertex: node 5 is never asked 5->3 (out of its 45 m range) nor
#: for the margin of 5<->3; node 10 is asked ``link_up`` both ways at
#: exactly 100 m but never ``quality_factor`` (zero margin).
_OTHER_CANDIDATES = [
    ("link_up", 1, 5), ("link_up", 5, 1), ("link_up", 2, 5),
    ("link_up", 5, 2), ("link_up", 3, 5),
    ("quality_factor", 5, 1), ("quality_factor", 5, 2),
    ("link_up", 1, 10), ("link_up", 10, 1),
    ("link_up", 2, 6), ("link_up", 6, 2), ("quality_factor", 6, 2),
]

FIND_CANDIDATE_AT_T1 = [
    ("link_up", 1, 4), ("link_up", 4, 1), ("link_up", 2, 4),
    ("link_up", 4, 2), ("link_up", 3, 4), ("link_up", 4, 3),
    ("quality_factor", 4, 1), ("quality_factor", 4, 2),
    ("quality_factor", 4, 3),
] + _OTHER_CANDIDATES

CHECK_WEAK_AT_T1 = [
    # The probe's margin to each Kautz neighbour ...
    ("quality_factor", 0, 1), ("quality_factor", 0, 2),
    ("quality_factor", 0, 3),
] + FIND_CANDIDATE_AT_T1 + [
    # ... and the winner's margins, re-asked by the weak-link rule.
    ("quality_factor", 4, 1), ("quality_factor", 4, 2),
    ("quality_factor", 4, 3),
]

CHECK_BROKEN_AT_T2 = [
    ("quality_factor", 4, 1), ("quality_factor", 4, 2),
    ("quality_factor", 4, 3),
    # Node 0, released at t = 1, is the first candidate scanned now.
    ("link_up", 1, 0), ("link_up", 0, 1), ("link_up", 2, 0),
    ("link_up", 0, 2), ("link_up", 3, 0), ("link_up", 0, 3),
    ("quality_factor", 0, 1), ("quality_factor", 0, 2),
    ("quality_factor", 0, 3),
] + _OTHER_CANDIDATES + [
    # Edges the live incumbent still covers: 4->1 is down, so 1->4 is
    # never asked.
    ("link_up", 4, 1), ("link_up", 4, 2), ("link_up", 2, 4),
    ("link_up", 4, 3), ("link_up", 3, 4),
]


def test_find_candidate_hook_sequence():
    network, cell, kid, maintenance, fault = build_world()
    found = maintenance._find_candidate([1, 2, 3], 1.0, must_replace=True)
    assert found == (4, 3)
    assert fault.calls == FIND_CANDIDATE_AT_T1


def test_check_node_hook_sequence_weak_then_broken():
    network, cell, kid, maintenance, fault = build_world()
    # Weak link 0<->1 (margin 0.004): replaced by candidate 4.
    maintenance._check_node(cell, kid, 1.0)
    assert cell.node_of(kid) == 4
    assert fault.calls == CHECK_WEAK_AT_T1
    # The 4<->1 fade breaks the vertex while node 4 is still alive:
    # the live-but-degraded branch counts the edges it still covers
    # (two) and hands the vertex back to node 0, which covers three.
    del fault.calls[:]
    maintenance._check_node(cell, kid, 2.0)
    assert cell.node_of(kid) == 0
    assert fault.calls == CHECK_BROKEN_AT_T2



def test_ranked_members_hook_sequence():
    """One ``link_up`` per in-range usable member, in ``member_ids``
    order (0, 1, 2, 3); the ranking itself asks nothing."""
    network, cell, kid, maintenance, fault = build_world()
    router = ReferRouter(network, DeploymentPlan(300.0, [], [], []), [cell])
    # Node 4 reaches all four; 1 and 2 tie at 36.06 m and keep their order.
    assert router._ranked_members(4, cell, 1.0) == [3, 1, 2, 0]
    assert fault.calls == [
        ("link_up", 4, 0), ("link_up", 4, 1), ("link_up", 4, 2),
        ("link_up", 4, 3),
    ]
    # Ranked by Kautz hops to 121 (node 2) first: still one hook each.
    del fault.calls[:]
    dest = KautzString.parse("121", 2)
    assert router._ranked_members(4, cell, 1.0, dest) == [2, 0, 3, 1]
    assert fault.calls == [
        ("link_up", 4, 0), ("link_up", 4, 1), ("link_up", 4, 2),
        ("link_up", 4, 3),
    ]
    # Node 5 (range 45) reaches 1 and 2 only; a failed member is never
    # asked about, and node 10 is asked at exactly 100 m.
    del fault.calls[:]
    network.node(2).failed = True
    assert router._ranked_members(5, cell, 1.0) == [1]
    assert router._ranked_members(10, cell, 1.0) == [1]
    assert fault.calls == [("link_up", 5, 1), ("link_up", 10, 1)]
    # From t = 2 the 4<->1 fade hides member 1 from node 4.
    del fault.calls[:]
    assert router._ranked_members(4, cell, 2.0) == [3, 0]
    assert fault.calls == [
        ("link_up", 4, 0), ("link_up", 4, 1), ("link_up", 4, 3),
    ]

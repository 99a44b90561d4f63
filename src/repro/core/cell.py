"""Runtime state of one embedded Kautz cell.

An :class:`EmbeddedCell` is the bidirectional mapping between the KIDs
of K(d, k) and the physical node ids that currently hold them, plus
which KIDs belong to actuators.  The embedding protocol fills it, the
maintenance protocol rewrites it as nodes are replaced, and the router
reads it on every hop.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import EmbeddingError
from repro.kautz.graph import KautzGraph
from repro.kautz.strings import KautzString

#: Membership-change notification: ``(kid, old_node_id, new_node_id)``;
#: ``old_node_id`` is ``None`` for a first assignment.
MembershipObserver = Callable[[KautzString, Optional[int], int], None]


class EmbeddedCell:
    """One WSAN cell with a (partially) embedded Kautz graph."""

    def __init__(self, cid: int, graph: KautzGraph) -> None:
        self.cid = cid
        self.graph = graph
        self._kid_to_node: Dict[KautzString, int] = {}
        self._node_to_kid: Dict[int, KautzString] = {}
        self._actuator_kids: Dict[KautzString, int] = {}
        self._observers: List[MembershipObserver] = []
        self._kautz_neighbors: Dict[KautzString, Tuple[KautzString, ...]] = {}

    def add_observer(self, observer: MembershipObserver) -> None:
        """Register a callback fired on every assign/reassign.

        The router keeps its node->cell cache coherent through this
        hook; observers must not mutate the cell re-entrantly.
        """
        self._observers.append(observer)

    def remove_observer(self, observer: MembershipObserver) -> None:
        """Unregister a callback :meth:`add_observer` registered."""
        self._observers.remove(observer)

    def _notify(
        self, kid: KautzString, old: Optional[int], new: int
    ) -> None:
        for observer in self._observers:
            observer(kid, old, new)

    # -- assignment -----------------------------------------------------------

    def assign(
        self, kid: KautzString, node_id: int, actuator: bool = False
    ) -> None:
        """Bind ``kid`` to ``node_id`` (both must be free)."""
        if kid not in self.graph:
            raise EmbeddingError(f"{kid!r} is not a vertex of {self.graph!r}")
        if kid in self._kid_to_node:
            raise EmbeddingError(f"KID {kid} already assigned in cell {self.cid}")
        if node_id in self._node_to_kid:
            raise EmbeddingError(
                f"node {node_id} already holds a KID in cell {self.cid}"
            )
        self._kid_to_node[kid] = node_id
        self._node_to_kid[node_id] = kid
        if actuator:
            self._actuator_kids[kid] = node_id
        self._notify(kid, None, node_id)

    def reassign(self, kid: KautzString, new_node_id: int) -> int:
        """Node replacement: ``kid`` moves to ``new_node_id``.

        Returns the displaced node id.  Actuator KIDs cannot move.
        """
        if kid in self._actuator_kids:
            raise EmbeddingError(f"actuator KID {kid} cannot be replaced")
        old = self._kid_to_node.get(kid)
        if old is None:
            raise EmbeddingError(f"KID {kid} not assigned in cell {self.cid}")
        if new_node_id in self._node_to_kid:
            raise EmbeddingError(f"node {new_node_id} already holds a KID")
        del self._node_to_kid[old]
        self._kid_to_node[kid] = new_node_id
        self._node_to_kid[new_node_id] = kid
        self._notify(kid, old, new_node_id)
        return old

    # -- queries -----------------------------------------------------------------

    def node_of(self, kid: KautzString) -> int:
        try:
            return self._kid_to_node[kid]
        except KeyError:
            raise EmbeddingError(
                f"KID {kid} unassigned in cell {self.cid}"
            ) from None

    def kid_of(self, node_id: int) -> KautzString:
        try:
            return self._node_to_kid[node_id]
        except KeyError:
            raise EmbeddingError(
                f"node {node_id} not a member of cell {self.cid}"
            ) from None

    def holds(self, node_id: int) -> bool:
        return node_id in self._node_to_kid

    def kid_assigned(self, kid: KautzString) -> bool:
        return kid in self._kid_to_node

    def is_actuator_kid(self, kid: KautzString) -> bool:
        return kid in self._actuator_kids

    @property
    def member_ids(self) -> List[int]:
        return list(self._node_to_kid)

    @property
    def sensor_member_ids(self) -> List[int]:
        actuator_nodes = set(self._actuator_kids.values())
        return [
            node_id
            for node_id in self._node_to_kid
            if node_id not in actuator_nodes
        ]

    @property
    def actuator_kids(self) -> List[KautzString]:
        return list(self._actuator_kids)

    @property
    def assigned_kids(self) -> List[KautzString]:
        return list(self._kid_to_node)

    @property
    def is_complete(self) -> bool:
        """Whether every vertex of K(d, k) has a physical node."""
        return len(self._kid_to_node) == self.graph.node_count

    def unassigned_kids(self) -> List[KautzString]:
        return [
            kid for kid in self.graph.nodes() if kid not in self._kid_to_node
        ]

    def kautz_neighbors_of(self, kid: KautzString) -> Tuple[KautzString, ...]:
        """The undirected Kautz neighbourhood (physical link set) of a
        KID: a property of the graph alone, so computed once per KID."""
        neighbors = self._kautz_neighbors.get(kid)
        if neighbors is None:
            successors = kid.successors()
            neighbors = self._kautz_neighbors[kid] = tuple(
                successors
                + [p for p in kid.predecessors() if p not in successors]
            )
        return neighbors

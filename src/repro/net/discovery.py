"""Flood-based route discovery — the baselines' routing substrate.

Models the topological routing of [35] (directed diffusion) that the
evaluation plugs into DaTree, D-DEAR and Kautz-overlay: a source floods
an interest/query, the target answers along the reverse flood tree,
and the source learns a hop path.  The flood's full energy cost and
per-level latency are charged through :meth:`WirelessNetwork.flood`;
the reply is a unicast chain of control packets.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.net.network import WirelessNetwork
from repro.net.packet import Packet, PacketKind

PathCallback = Callable[[Optional[List[int]]], None]
#: A flood tree: node id -> (hops from the root, parent or None).
FloodTree = Dict[int, Tuple[int, Optional[int]]]

#: Frame size of a flooded query and of each unicast reply hop.
QUERY_BYTES = 64
REPLY_BYTES = 64


def nearest_reached(tree: FloodTree, targets: Sequence[int]) -> Optional[int]:
    """The member of ``targets`` the flood reached in the fewest hops —
    the lowest id among equally near ones — or None if it reached none."""
    reached = [(tree[node_id][0], node_id) for node_id in targets
               if node_id in tree]
    return min(reached)[1] if reached else None


class FloodDiscovery:
    """Discovers physical hop paths by TTL-bounded flooding."""

    def __init__(self, network: WirelessNetwork) -> None:
        self._network = network
        self.queries = 0

    @staticmethod
    def extract_path(tree: FloodTree, target: int) -> Optional[List[int]]:
        """Root->target path from a flood tree, or None if unreached."""
        if target not in tree:
            return None
        path = [target]
        while True:
            _, parent = tree[path[-1]]
            if parent is None:
                break
            path.append(parent)
        path.reverse()
        return path

    def discover(
        self,
        src_id: int,
        targets: Sequence[int],
        ttl: int,
        on_path: PathCallback,
    ) -> None:
        """Find a hop path from ``src_id`` to the hop-nearest member of
        ``targets`` (:func:`nearest_reached`); None if the flood reaches
        none of them or the reply is lost.

        Cost model: one TTL-bounded flood (energy at every reached
        node) plus a unicast reply chain of control packets back along
        the flood tree.  The callback fires after flood latency + reply
        time.
        """
        self.queries += 1

        def flooded(tree: FloodTree) -> None:
            best = nearest_reached(tree, targets)
            if best is None:
                on_path(None)
                return
            path = self.extract_path(tree, best)
            reply = Packet(
                kind=PacketKind.CONTROL,
                size_bytes=REPLY_BYTES,
                source=best,
                destination=src_id,
                created_at=self._network.sim.now,
            )
            self._network.send_along_path(
                path[::-1],
                reply,
                on_delivered=lambda pkt: on_path(path),
                on_failed=lambda pkt, cause: on_path(None),
            )

        self._network.flood(
            src_id,
            ttl=ttl,
            size_bytes=QUERY_BYTES,
            kind=PacketKind.QUERY,
            on_complete=flooded,
        )

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

#: Frame size of a flooded query and of each unicast reply hop.
QUERY_BYTES = 64
REPLY_BYTES = 64


class FloodDiscovery:
    """Discovers physical hop paths by TTL-bounded flooding."""

    def __init__(self, network: WirelessNetwork) -> None:
        self._network = network
        self.queries = 0

    @staticmethod
    def extract_path(
        tree: Dict[int, Tuple[int, Optional[int]]], target: int
    ) -> Optional[List[int]]:
        """Source->target path from a flood tree, or None if unreached."""
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

    def discover_path(
        self,
        src_id: int,
        target_id: int,
        ttl: int,
        on_path: PathCallback,
    ) -> None:
        """Find a src->target hop path; calls back with None on failure.

        Cost model: one TTL-bounded flood (energy at every reached
        node) plus a reverse-path unicast reply chain of control
        packets.  The callback fires after flood latency + reply time.
        """
        self.queries += 1

        def flooded(tree: Dict[int, Tuple[int, Optional[int]]]) -> None:
            path = self.extract_path(tree, target_id)
            if path is None:
                on_path(None)
                return
            self._send_reply(list(reversed(path)), path, on_path)

        self._network.flood(
            src_id,
            ttl=ttl,
            size_bytes=QUERY_BYTES,
            kind=PacketKind.QUERY,
            on_complete=flooded,
        )

    def discover_nearest(
        self,
        src_id: int,
        targets: Sequence[int],
        ttl: int,
        on_path: PathCallback,
    ) -> None:
        """Path to the hop-nearest member of ``targets`` (e.g. any actuator)."""
        self.queries += 1
        target_set = set(targets)

        def flooded(tree: Dict[int, Tuple[int, Optional[int]]]) -> None:
            reached = [
                (hops, node_id)
                for node_id, (hops, _) in tree.items()
                if node_id in target_set
            ]
            if not reached:
                on_path(None)
                return
            _, best = min(reached)
            path = self.extract_path(tree, best)
            self._send_reply(list(reversed(path)), path, on_path)

        self._network.flood(
            src_id,
            ttl=ttl,
            size_bytes=QUERY_BYTES,
            kind=PacketKind.QUERY,
            on_complete=flooded,
        )

    def _send_reply(
        self,
        reverse_path: List[int],
        forward_path: List[int],
        on_path: PathCallback,
    ) -> None:
        """Unicast the reply back along the flood tree's reverse path."""
        reply = Packet(
            kind=PacketKind.CONTROL,
            size_bytes=REPLY_BYTES,
            source=reverse_path[0],
            destination=reverse_path[-1],
            created_at=self._network.sim.now,
        )
        self._network.send_along_path(
            reverse_path,
            reply,
            on_delivered=lambda pkt: on_path(forward_path),
            on_failed=lambda pkt, at: on_path(None),
        )

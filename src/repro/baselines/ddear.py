"""D-DEAR: the mesh/cluster-based WSAN baseline (Shah et al., NEW2AN'06).

Construction: sensors exchange 1-hop beacons, then a 2-hop dominating
set of cluster heads is elected (highest residual energy first, ids
breaking ties).  Members attach to their nearest head (<= 2 hops);
each head discovers a multi-hop path to its nearest actuator over the
physical graph (a bounded flood, charged).

Data plane: member -> head (<= 2 hops) -> head's path -> actuator.
On a member->head failure the member re-attaches locally and the
*source* retransmits; on a head-path failure the head floods to
rebuild its actuator path and retransmits from the head — so faults
and mobility only force path updates at heads, which is why D-DEAR
sits between REFER and DaTree on most metrics.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.baselines.base import (
    MAX_RETRANSMISSIONS,
    RETRANSMIT_TIMEOUT,
    FloodingSystem,
)
from repro.net.discovery import FloodDiscovery
from repro.net.network import WirelessNetwork
from repro.net.packet import Packet
from repro.util.hashing import consistent_hash
from repro.wsan.deployment import DeploymentPlan
from repro.wsan.system import DeliveredCallback, DroppedCallback


#: TTL of a head's actuator-path discovery flood.
DISCOVERY_TTL = 16


class DDearSystem(FloodingSystem):
    """Two-hop clusters with head-maintained actuator paths."""

    name = "D-DEAR"

    def __init__(
        self,
        network: WirelessNetwork,
        plan: DeploymentPlan,
        rng: random.Random,
    ) -> None:
        super().__init__(network, plan, rng)
        self._discovery = FloodDiscovery(network)
        self._head_of: Dict[int, int] = {}        # member -> head
        self._member_path: Dict[int, List[int]] = {}  # member -> [m, (relay,) head]
        self._head_path: Dict[int, List[int]] = {}    # head -> [head, ..., actuator]
        self.heads: List[int] = []
        self._repairing: set = set()
        self.reattachments = 0

    # -- lifecycle ------------------------------------------------------------

    def build(self) -> None:
        now = self.network.sim.now
        # 1-hop beacon exchange: every sensor broadcasts once.
        for sensor_id in self.sensor_ids:
            self.network.charge_tx(sensor_id, "control")
            self.network.charge_rx_each(
                self.network.neighbors(sensor_id), "control"
            )
        self._elect_heads(now)
        self._attach_members(now)
        # Head -> actuator paths come from one joint actuator
        # advertisement flood: each head records the reverse path of the
        # first advertisement wave that reaches it.
        tree = self.network.flood_multi(
            self.actuator_ids, ttl=DISCOVERY_TTL, size_bytes=32
        )
        for head in self.heads:
            path = FloodDiscovery.extract_path(tree, head)
            if path is not None:
                self._head_path[head] = path[::-1]

    def _elect_heads(self, now: float) -> None:
        """Greedy 2-hop dominating set, energy-first (hash tiebreak)."""
        order = sorted(
            self.sensor_ids,
            key=lambda s: (
                -self.network.node(s).battery_fraction,
                consistent_hash(f"ddear-{s}"),
            ),
        )
        covered: set = set()
        for sensor_id in order:
            if sensor_id in covered:
                continue
            if not self.network.node(sensor_id).usable:
                continue
            self.heads.append(sensor_id)
            covered.add(sensor_id)
            one_hop = self.network.neighbors(sensor_id)
            covered.update(one_hop)
            for nb in one_hop:
                covered.update(self.network.neighbors(nb))

    def _attach_members(self, now: float) -> None:
        """Each sensor attaches to a head within 2 hops (1 relay max)."""
        head_set = set(self.heads)
        for sensor_id in self.sensor_ids:
            if sensor_id in head_set:
                continue
            path = self._local_head_path(sensor_id)
            if path is not None:
                self._head_of[sensor_id] = path[-1]
                self._member_path[sensor_id] = path

    def _local_head_path(self, sensor_id: int) -> Optional[List[int]]:
        """A <= 2-hop path sensor -> head, preferring the direct one."""
        head_set = set(self.heads)
        neighbors = self.network.neighbors(sensor_id)
        direct = [nb for nb in neighbors if nb in head_set]
        if direct:
            return [sensor_id, direct[0]]
        for relay in neighbors:
            if not self.network.node(relay).is_sensor:
                continue
            second = [
                nb
                for nb in self.network.neighbors(relay)
                if nb in head_set
            ]
            if second:
                return [sensor_id, relay, second[0]]
        return None

    def _maintenance_round(self) -> None:
        """Heads keep their actuator paths alive; members ping heads.

        Member link breaks are repaired *locally* (the member simply
        re-attaches to a head in its 2-hop neighbourhood) — the reason
        D-DEAR's maintenance energy sits well below DaTree's, where
        every break floods toward the root.
        """
        now = self.network.sim.now
        # Members: one hello to the head's next hop; re-attach locally
        # if the first hop has moved away.
        for member, path in list(self._member_path.items()):
            if not self.network.node(member).usable:
                continue
            self.network.charge_tx(member, "probe")
            if self.network.medium.can_transmit(member, path[1], now):
                self.network.charge_rx(path[1], "probe")
                continue
            self._member_path.pop(member, None)
            self._head_of.pop(member, None)
            fresh = self._local_head_path(member)
            self.reattachments += 1
            if fresh is not None:
                self._head_of[member] = fresh[-1]
                self._member_path[member] = fresh
        # Heads: verify the whole actuator path; broken -> flood repair.
        for head in self.heads:
            if not self.network.node(head).usable:
                continue
            path = self._head_path.get(head)
            self.network.charge_tx(head, "probe")
            if path is not None and self._path_intact(path, now):
                self.network.charge_rx(path[1], "probe")
                continue
            self._head_path.pop(head, None)
            if head in self._repairing:
                continue
            self._repairing.add(head)
            self.repairs += 1
            self._discovery.discover(
                head,
                self.actuator_ids,
                ttl=DISCOVERY_TTL,
                on_path=lambda p, h=head: self._install_head_path(h, p),
            )

    def _install_head_path(self, head: int, path: Optional[List[int]]) -> None:
        self._repairing.discard(head)
        if path is not None:
            self._head_path[head] = path

    # -- data plane --------------------------------------------------------------

    def send_event(
        self,
        source_id: int,
        packet: Packet,
        on_delivered: Optional[DeliveredCallback] = None,
        on_dropped: Optional[DroppedCallback] = None,
    ) -> None:
        self._send_from_source(
            source_id, packet, MAX_RETRANSMISSIONS,
            on_delivered, on_dropped,
        )

    def _send_from_source(
        self,
        source_id: int,
        packet: Packet,
        retransmissions_left: int,
        on_delivered: Optional[DeliveredCallback],
        on_dropped: Optional[DroppedCallback],
    ) -> None:
        if source_id in self._head_path:   # the source is itself a head
            self._send_head_leg(
                source_id, packet, retransmissions_left,
                on_delivered, on_dropped,
            )
            return
        member_path = self._member_path.get(source_id)
        if member_path is None:
            member_path = self._local_head_path(source_id)
            if member_path is None:
                self._drop(packet, on_dropped, "no-route")
                return
            self.reattachments += 1
            self._head_of[source_id] = member_path[-1]
            self._member_path[source_id] = member_path

        head = member_path[-1]

        def at_head(pkt: Packet) -> None:
            self._send_head_leg(
                head, pkt, retransmissions_left, on_delivered, on_dropped
            )

        def member_leg_failed(pkt: Packet, cause: str) -> None:
            # Local re-attachment; the source retransmits after its
            # end-to-end timeout.
            self._member_path.pop(source_id, None)
            self._head_of.pop(source_id, None)
            self.reattachments += 1
            self._retransmit(
                pkt, retransmissions_left, on_dropped,
                lambda copy, left: self._send_from_source(
                    source_id, copy, left, on_delivered, on_dropped,
                ),
                cause,
            )

        self.network.send_along_path(
            member_path,
            packet,
            on_delivered=at_head,
            on_failed=member_leg_failed,
        )

    def _send_head_leg(
        self,
        head: int,
        packet: Packet,
        retransmissions_left: int,
        on_delivered: Optional[DeliveredCallback],
        on_dropped: Optional[DroppedCallback],
    ) -> None:
        path = self._head_path.get(head)
        if path is None:
            self._repair_head_path(
                head, packet, retransmissions_left,
                on_delivered, on_dropped, None,
            )
            return
        self._send_on_head_path(
            head, path, packet, retransmissions_left, on_delivered, on_dropped
        )

    def _send_on_head_path(
        self,
        head: int,
        path: List[int],
        packet: Packet,
        retransmissions_left: int,
        on_delivered: Optional[DeliveredCallback],
        on_dropped: Optional[DroppedCallback],
    ) -> None:
        """Relay over ``head``'s cached actuator path; a retry in place
        is a fresh call, so the failure callback never refers to
        itself (no reference cycle per packet)."""

        def failed(pkt: Packet, cause: str) -> None:
            # Congestion loss on an intact path: retry in place.
            now = self.network.sim.now
            if self._path_intact(path, now) and self._retry_congested(pkt):
                self._send_on_head_path(
                    head, path, pkt, retransmissions_left,
                    on_delivered, on_dropped,
                )
                return
            self._head_path.pop(head, None)
            self._repair_head_path(
                head, pkt, retransmissions_left, on_delivered, on_dropped,
                cause,
            )

        self.network.send_along_path(
            path,
            packet,
            on_delivered=on_delivered,
            on_failed=failed,
        )

    def _repair_head_path(
        self,
        head: int,
        packet: Packet,
        retransmissions_left: int,
        on_delivered: Optional[DeliveredCallback],
        on_dropped: Optional[DroppedCallback],
        cause: Optional[str],
    ) -> None:
        """Head floods to rebuild its actuator path, then retransmits
        (``cause``: the hop failure that led here, if one did)."""
        self.repairs += 1

        def rebuilt(path: Optional[List[int]]) -> None:
            if path is None:
                self._drop(packet, on_dropped, "no-route", cause)
                return
            # A packet out of retransmissions is dropped without
            # caching the rebuilt path.
            if retransmissions_left > 0:
                self._head_path[head] = path
            # The head is the reliability point for its leg: it learns
            # of the loss faster than an end-to-end source would.
            self._retransmit(
                packet, retransmissions_left, on_dropped,
                lambda copy, left: self.network.send_along_path(
                    path,
                    copy,
                    on_delivered=on_delivered,
                    on_failed=lambda pkt, hop_cause: self._drop(
                        pkt, on_dropped, "path-hop-failed", hop_cause
                    ),
                ),
                cause,
                delay=RETRANSMIT_TIMEOUT / 2,
            )

        self._discovery.discover(
            head, self.actuator_ids, ttl=DISCOVERY_TTL, on_path=rebuilt
        )

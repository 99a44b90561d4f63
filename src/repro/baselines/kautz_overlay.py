"""Kautz-overlay: the application-layer Kautz baseline (Zuo et al.).

A Kautz graph is built over the node population *at the application
layer*: KIDs are assigned by hash order, so overlay neighbours are
physically unrelated nodes and every overlay hop must traverse a
multi-hop physical path.  The overlay uses REFER's routing protocol
(the paper does exactly this "to have a fair comparison"); what it
cannot have is topology consistency:

* construction — every overlay member floods to discover physical
  paths to its d overlay successors (the most expensive construction,
  Fig 10);
* data plane — each overlay hop replays a cached physical path; when
  a physical link has broken, the node floods to re-establish the path
  (no source retransmission — the overlay is fault-tolerant — but long
  multi-hop chains make delay high and throughput the lowest).

The overlay dimension K(2, k) is the largest that fits the node
population; actuators are always members so events terminate at them.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ConfigError
from repro.kautz.disjoint import successor_table
from repro.kautz.graph import KautzGraph, kautz_node_count
from repro.kautz.strings import KautzString
from repro.net.discovery import FloodDiscovery
from repro.net.network import WirelessNetwork
from repro.net.packet import Packet
from repro.sim.process import PeriodicProcess
from repro.util.hashing import consistent_hash
from repro.wsan.deployment import DeploymentPlan
from repro.wsan.system import DeliveredCallback, DroppedCallback, WsanSystem


def overlay_dimensions(population: int, degree: int = 2) -> int:
    """Largest k with |K(degree, k)| <= population (and k >= 2)."""
    if population < kautz_node_count(degree, 2):
        raise ConfigError(
            f"population {population} too small for a K({degree}, 2) overlay"
        )
    k = 2
    while kautz_node_count(degree, k + 1) <= population:
        k += 1
    return k


#: TTL of a member's successor-path discovery flood.
DISCOVERY_TTL = 16
#: Path re-discoveries allowed per overlay segment.
MAX_SEGMENT_RECOVERIES = 1
#: Seconds between overlay maintenance rounds.
HELLO_PERIOD = 5.0


class KautzOverlaySystem(WsanSystem):
    """An application-layer Kautz overlay without topology consistency."""

    name = "Kautz-overlay"

    def __init__(
        self,
        network: WirelessNetwork,
        plan: DeploymentPlan,
        rng: random.Random,
        degree: int = 3,
    ) -> None:
        super().__init__(network, plan, rng)
        self._degree = degree
        self._discovery = FloodDiscovery(network)
        self._kid_to_node: Dict[KautzString, int] = {}
        self._node_to_kid: Dict[int, KautzString] = {}
        self._paths: Dict[Tuple[int, int], List[int]] = {}
        self._recovering: Set[Tuple[int, int]] = set()
        self.graph: Optional[KautzGraph] = None
        self.repairs = 0
        self.max_route_hops = 0
        self._maintenance = PeriodicProcess(
            network.sim,
            period=HELLO_PERIOD,
            action=self._maintenance_round,
            jitter=HELLO_PERIOD / 10.0,
            rng=rng,
        )

    # -- lifecycle ------------------------------------------------------------

    def build(self) -> None:
        population = self.plan.actuator_count + self.plan.sensor_count
        k = overlay_dimensions(population, self._degree)
        self.graph = KautzGraph(self._degree, k)
        self.max_route_hops = 4 * k + 8
        self._assign_kids()
        self._discover_neighbor_paths()

    def _assign_kids(self) -> None:
        """Hash-ordered KID assignment: actuators first, then sensors.

        Hash order models the application-layer join sequence: the
        resulting overlay neighbours are physically arbitrary — the
        topology inconsistency that defines this baseline.
        """
        members = self.actuator_ids + sorted(
            self.sensor_ids, key=lambda s: consistent_hash(f"overlay-{s}")
        )
        members = members[: self.graph.node_count]
        for index, node_id in enumerate(members):
            kid = self.graph.node_at(index)
            self._kid_to_node[kid] = node_id
            self._node_to_kid[node_id] = kid

    def _discover_neighbor_paths(self) -> None:
        """Each member floods once and learns paths to its successors."""
        for node_id, kid in self._node_to_kid.items():
            tree = self.network.flood(
                node_id, ttl=DISCOVERY_TTL, size_bytes=48
            )
            for succ in kid.successors():
                succ_node = self._kid_to_node.get(succ)
                if succ_node is None:
                    continue
                path = FloodDiscovery.extract_path(tree, succ_node)
                if path is not None:
                    self._paths[(node_id, succ_node)] = path

    def start(self) -> None:
        """Every member keeps the multi-hop paths to its d overlay
        successors alive — the consecutive multi-hop paths the paper
        blames for Kautz-overlay's energy blow-up under mobility."""
        self._maintenance.start()

    def stop(self) -> None:
        self._maintenance.stop()

    def _maintenance_round(self) -> None:
        """Keep-alives along every cached overlay-neighbour path.

        Each member pings the first hop of each of its d paths per
        round.  Broken paths are *detected* here (dropped from the
        cache) but re-established lazily, when the next message needs
        them — the flooding cost then lands on the data plane exactly
        when the paper's narrative places it.
        """
        now = self.network.sim.now
        for (from_node, to_node), path in list(self._paths.items()):
            if not self.network.node(from_node).usable:
                continue
            self.network.charge_tx(from_node, "probe")
            if all(
                self.network.medium.can_transmit(a, b, now)
                for a, b in zip(path, path[1:])
            ):
                self.network.charge_rx(path[1], "probe")
            else:
                self._paths.pop((from_node, to_node), None)

    # -- data plane ---------------------------------------------------------------

    def kid_of(self, node_id: int) -> Optional[KautzString]:
        return self._node_to_kid.get(node_id)

    def send_event(
        self,
        source_id: int,
        packet: Packet,
        on_delivered: Optional[DeliveredCallback] = None,
        on_dropped: Optional[DroppedCallback] = None,
    ) -> None:
        now = self.network.sim.now
        dest_actuator = self.nearest_actuator(source_id)
        dest_kid = self._node_to_kid[dest_actuator]
        packet.destination = dest_actuator
        if source_id in self._node_to_kid:
            self._route_overlay(
                source_id, dest_kid, packet, on_delivered, on_dropped,
                visited=set(), hops_left=self.max_route_hops,
            )
            return
        # Non-member source: reach the physically nearest member first
        # (the first of the nearest, in membership order).
        in_reach = self.network.medium.reachable(
            source_id, self._node_to_kid, now
        )
        if not in_reach:
            self._drop(packet, on_dropped, "no-route")
            return
        entry, _ = min(in_reach, key=lambda found: found[1])

        self.network.send(
            source_id,
            entry,
            packet,
            on_delivered=lambda pkt: self._route_overlay(
                entry, dest_kid, pkt, on_delivered, on_dropped,
                visited=set(), hops_left=self.max_route_hops,
            ),
            on_failed=lambda pkt, at: self._drop(
                pkt, on_dropped, "entry-failed"
            ),
            deliver_to_handler=False,
        )

    # -- overlay routing (REFER's protocol over cached physical paths) -------------

    def _route_overlay(
        self,
        at_node: int,
        dest_kid: KautzString,
        packet: Packet,
        on_delivered: Optional[DeliveredCallback],
        on_dropped: Optional[DroppedCallback],
        visited: Set[KautzString],
        hops_left: int,
    ) -> None:
        kid = self._node_to_kid[at_node]
        if kid == dest_kid:
            if on_delivered is not None:
                on_delivered(packet)
            return
        if hops_left <= 0:
            self._drop(packet, on_dropped, "hop-limit")
            return
        visited = visited | {kid}
        ranked = [
            row.successor
            for row in successor_table(kid, dest_kid)
            if row.successor not in visited
            and row.successor in self._kid_to_node
            and (
                row.successor == dest_kid
                or self.network.node(
                    self._kid_to_node[row.successor]
                ).usable
            )
        ]
        self._try_overlay_successors(
            at_node, dest_kid, ranked, 0, packet,
            on_delivered, on_dropped, visited, hops_left,
        )

    def _try_overlay_successors(
        self,
        at_node: int,
        dest_kid: KautzString,
        ranked: List[KautzString],
        index: int,
        packet: Packet,
        on_delivered: Optional[DeliveredCallback],
        on_dropped: Optional[DroppedCallback],
        visited: Set[KautzString],
        hops_left: int,
    ) -> None:
        if index >= len(ranked):
            self._drop(packet, on_dropped, "no-successor")
            return
        succ_node = self._kid_to_node[ranked[index]]

        def segment_done(ok: bool, pkt: Packet) -> None:
            if ok:
                self._route_overlay(
                    succ_node, dest_kid, pkt, on_delivered, on_dropped,
                    visited, hops_left - 1,
                )
            else:
                self._try_overlay_successors(
                    at_node, dest_kid, ranked, index + 1, pkt,
                    on_delivered, on_dropped, visited, hops_left,
                )

        self._send_segment(
            at_node, succ_node, packet,
            MAX_SEGMENT_RECOVERIES, segment_done,
        )

    def _send_segment(
        self,
        from_node: int,
        to_node: int,
        packet: Packet,
        recoveries_left: int,
        done,
    ) -> None:
        """One overlay hop = a cached multi-hop physical path.

        On a physical failure, flood to re-establish the path and retry
        once; report failure to the overlay layer after that.
        """
        path = self._paths.get((from_node, to_node))
        if path is None:
            self._recover_segment(
                from_node, to_node, packet, recoveries_left, done
            )
            return

        def failed(pkt: Packet, at: int) -> None:
            # Congestion losses are retried on the same path; only a
            # genuinely broken path triggers re-establishment flooding.
            now = self.network.sim.now
            intact = all(
                self.network.medium.can_transmit(a, b, now)
                for a, b in zip(path, path[1:])
            )
            if intact:
                if recoveries_left > 0:
                    self.network.send_along_path(
                        path,
                        pkt,
                        on_delivered=lambda p: done(True, p),
                        on_failed=lambda p, a: done(False, p),
                    )
                else:
                    done(False, pkt)
                return
            self._paths.pop((from_node, to_node), None)
            self._recover_segment(
                from_node, to_node, pkt, recoveries_left, done
            )

        self.network.send_along_path(
            path,
            packet,
            on_delivered=lambda pkt: done(True, pkt),
            on_failed=failed,
        )

    def _recover_segment(
        self,
        from_node: int,
        to_node: int,
        packet: Packet,
        recoveries_left: int,
        done,
    ) -> None:
        if (
            recoveries_left <= 0
            or not self.network.node(from_node).usable
            or not self.network.node(to_node).usable
        ):
            done(False, packet)
            return
        key = (from_node, to_node)
        if key in self._recovering or len(self._recovering) >= 3:
            # A re-establishment flood for this overlay edge is already
            # in flight (or the repair machinery is saturated); this
            # packet falls back to another successor.
            done(False, packet)
            return
        self._recovering.add(key)
        self.repairs += 1

        def rediscovered(path: Optional[List[int]]) -> None:
            self._recovering.discard(key)
            if path is None:
                done(False, packet)
                return
            self._paths[(from_node, to_node)] = path
            self.network.send_along_path(
                path,
                packet,
                on_delivered=lambda pkt: done(True, pkt),
                on_failed=lambda pkt, at: done(False, pkt),
            )

        self._discovery.discover_path(
            from_node, to_node, ttl=DISCOVERY_TTL, on_path=rediscovered
        )

"""DaTree: the tree-based WSAN baseline (Melodia et al., MobiCom'05).

Construction: every actuator broadcasts one message; each sensor
adopts the forwarder of the first copy it hears as its parent — a
joint flood, the cheapest construction of all four systems (Fig 10).

Data plane: a sensor forwards events up its tree, parent by parent,
to the root actuator.  When a link to a parent has broken, the node
broadcasts toward the root to re-establish a parent (a network flood)
and the *source retransmits the message* — the behaviour that costs
DaTree throughput and energy under mobility and faults (Figs 4-7).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.errors import ConfigError
from repro.net.network import WirelessNetwork
from repro.net.packet import Packet, PacketKind
from repro.sim.process import PeriodicProcess
from repro.wsan.deployment import DeploymentPlan
from repro.wsan.system import DeliveredCallback, DroppedCallback, WsanSystem


#: Source retransmissions allowed per packet.
MAX_RETRANSMISSIONS = 2
#: TTL of the construction flood and of every repair flood.
FLOOD_TTL = 24
#: Seconds between parent-link hello rounds.
HELLO_PERIOD = 5.0
#: Seconds a source waits for a repair before it retransmits.
RETRANSMIT_TIMEOUT = 0.5


class DaTreeSystem(WsanSystem):
    """Per-actuator trees with broadcast repair and source retransmit."""

    name = "DaTree"

    def __init__(
        self,
        network: WirelessNetwork,
        plan: DeploymentPlan,
        rng: random.Random,
    ) -> None:
        super().__init__(network, plan, rng)
        self._parent: Dict[int, int] = {}
        self._repairing: set = set()
        self.repairs = 0
        self.retransmissions = 0
        self._maintenance = PeriodicProcess(
            network.sim,
            period=HELLO_PERIOD,
            action=self._hello_round,
            jitter=HELLO_PERIOD / 10.0,
            rng=rng,
        )

    # -- lifecycle ----------------------------------------------------------

    def build(self) -> None:
        tree = self.network.flood_multi(
            self.actuator_ids, ttl=FLOOD_TTL, size_bytes=32
        )
        for node_id, (_, parent) in tree.items():
            if parent is not None:
                self._parent[node_id] = parent

    def start(self) -> None:
        """Every sensor keeps its parent link alive with periodic hellos.

        The paper's scalability discussion hinges on this: *all* DaTree
        nodes maintain tree links, so mobility makes every sensor — not
        just those on active paths — flood for a new parent.
        """
        self._maintenance.start()

    def stop(self) -> None:
        self._maintenance.stop()

    def _hello_round(self) -> None:
        now = self.network.sim.now
        for sensor_id in self.sensor_ids:
            if not self.network.node(sensor_id).usable:
                continue
            parent = self._parent.get(sensor_id)
            # One hello per sensor per round; the parent answers.
            self.network.charge_tx(sensor_id, "probe")
            if parent is not None and self.network.medium.can_transmit(
                sensor_id, parent, now
            ):
                self.network.charge_rx(parent, "probe")
                continue
            # Parent unreachable: broadcast toward the root for a new one.
            if sensor_id in self._repairing:
                continue
            self._repairing.add(sensor_id)
            self.repairs += 1
            self.network.flood(
                sensor_id,
                ttl=FLOOD_TTL,
                size_bytes=48,
                on_complete=lambda tree, s=sensor_id: self._adopt_new_parents(
                    s, tree
                ),
            )

    # -- data plane -----------------------------------------------------------

    def parent_of(self, node_id: int) -> Optional[int]:
        return self._parent.get(node_id)

    def send_event(
        self,
        source_id: int,
        packet: Packet,
        on_delivered: Optional[DeliveredCallback] = None,
        on_dropped: Optional[DroppedCallback] = None,
    ) -> None:
        self._forward(
            source_id, source_id, packet,
            MAX_RETRANSMISSIONS, on_delivered, on_dropped,
            hops_left=4 * FLOOD_TTL,
        )

    def _forward(
        self,
        node_id: int,
        source_id: int,
        packet: Packet,
        retransmissions_left: int,
        on_delivered: Optional[DeliveredCallback],
        on_dropped: Optional[DroppedCallback],
        hops_left: int,
    ) -> None:
        if self.network.node(node_id).is_actuator:
            if on_delivered is not None:
                on_delivered(packet)
            return
        if hops_left <= 0:
            self._drop(packet, on_dropped, "hop-limit")
            return
        parent = self._parent.get(node_id)
        if parent is None:
            self._repair_and_retransmit(
                node_id, source_id, packet,
                retransmissions_left, on_delivered, on_dropped,
            )
            return
        is_final = self.network.node(parent).is_actuator

        def arrived(pkt: Packet) -> None:
            if is_final:
                if on_delivered is not None:
                    on_delivered(pkt)
            else:
                self._forward(
                    parent, source_id, pkt, retransmissions_left,
                    on_delivered, on_dropped, hops_left - 1,
                )

        def failed(pkt: Packet, at: int) -> None:
            # A congestion loss on an intact link is simply re-sent;
            # a broken link triggers the broadcast repair + source
            # retransmission cycle.
            if self.network.medium.can_transmit(
                node_id, parent, self.network.sim.now
            ):
                meta_key = "datree_congestion_retries"
                retries = pkt.meta.get(meta_key, 0)
                if retries < 2:
                    pkt.meta[meta_key] = retries + 1
                    self._forward(
                        node_id, source_id, pkt, retransmissions_left,
                        on_delivered, on_dropped, hops_left,
                    )
                    return
            self._repair_and_retransmit(
                node_id, source_id, pkt,
                retransmissions_left, on_delivered, on_dropped,
            )

        self.network.send(
            node_id,
            parent,
            packet,
            on_delivered=arrived,
            on_failed=failed,
            deliver_to_handler=is_final,
        )

    def _repair_and_retransmit(
        self,
        broken_at: int,
        source_id: int,
        packet: Packet,
        retransmissions_left: int,
        on_delivered: Optional[DeliveredCallback],
        on_dropped: Optional[DroppedCallback],
    ) -> None:
        """Broadcast toward the root to re-parent; source resends later.

        The repair flood re-parents the broken relay, but the *source*
        only learns of the loss through an end-to-end timeout — the
        "certain delay" the paper charges tree/mesh systems for, and
        what REFER's local detours avoid.
        """
        if broken_at not in self._repairing:
            # One outstanding repair per node; packets failing at the
            # same spot meanwhile just wait for their own timeout.
            self._repairing.add(broken_at)
            self.repairs += 1
            self.network.flood(
                broken_at,
                ttl=FLOOD_TTL,
                size_bytes=48,
                on_complete=lambda tree: self._confirm_repair(
                    broken_at, tree
                ),
            )
        if retransmissions_left <= 0:
            self._drop(packet, on_dropped, "retries-exhausted")
            return

        def resend() -> None:
            self.retransmissions += 1
            retry = packet.clone_for_retransmit(self.network.sim.now)
            self._forward(
                source_id, source_id, retry,
                retransmissions_left - 1, on_delivered, on_dropped,
                hops_left=4 * FLOOD_TTL,
            )

        self.network.sim.schedule(RETRANSMIT_TIMEOUT, resend)

    def _adopt_new_parents(self, origin: int, tree: Dict) -> None:
        self._repairing.discard(origin)
        return self._install_parents(origin, tree)

    def _confirm_repair(self, origin: int, tree: Dict) -> None:
        """The root answers the repair broadcast before links change.

        New parent pointers only become usable once the confirmation
        has travelled from the actuator back to the broken node — the
        re-establishment delay the paper charges DaTree for.
        """
        actuators = [a for a in self.actuator_ids if a in tree]
        if not actuators:
            self._adopt_new_parents(origin, tree)
            return
        best = min(actuators, key=lambda a: tree[a][0])
        chain = [best]
        while True:
            _, parent = tree[chain[-1]]
            if parent is None:
                break
            chain.append(parent)
        confirm = Packet(
            kind=PacketKind.CONTROL,
            size_bytes=48,
            source=best,
            destination=origin,
            created_at=self.network.sim.now,
        )
        self.network.send_along_path(
            chain,
            confirm,
            on_delivered=lambda pkt: self._adopt_new_parents(origin, tree),
            on_failed=lambda pkt, at: self._adopt_new_parents(origin, tree),
        )

    def _install_parents(self, origin: int, tree: Dict) -> None:
        """Install the reverse flood path from ``origin`` to an actuator.

        The flood from the broken node reaches some actuator; the path
        back from that actuator gives every node on it a fresh parent
        pointing rootward.
        """
        actuators = [a for a in self.actuator_ids if a in tree]
        if not actuators:
            return
        best = min(actuators, key=lambda a: tree[a][0])
        # Walk actuator -> origin through flood parents; each step's
        # child adopts the previous node as its new parent.
        chain = [best]
        while True:
            _, parent = tree[chain[-1]]
            if parent is None:
                break
            chain.append(parent)
        # chain is [actuator, ..., origin]; reverse pairs give parents.
        for child, new_parent in zip(chain[::-1], chain[::-1][1:]):
            if not self.network.node(child).is_actuator:
                self._parent[child] = new_parent

"""The network facade protocols program against.

:class:`WirelessNetwork` wires together the simulator, medium, MAC and
energy ledger, and offers the three primitives every protocol in this
repository is built from:

* :meth:`send` — one-hop unicast with success/failure callbacks,
* :meth:`send_along_path` — hop-by-hop relay over a node-id path,
* :meth:`flood` — TTL-bounded broadcast with per-level latency and
  full flooding energy accounting (the cost the paper charges the
  baselines for route discovery/repair).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import NetworkError
from repro.net.energy import EnergyLedger, EnergyModel, Phase
from repro.net.mac import (
    PROCESSING_DELAY,
    SLOT_SECONDS,
    ContentionMac,
    MacConfig,
)
from repro.net.medium import WirelessMedium
from repro.net.node import Node
from repro.net.packet import Packet, PacketKind
from repro.sim.core import Simulator
from repro.telemetry.config import Telemetry
from repro.telemetry.registry import Registry

ReceiveHandler = Callable[[Packet], None]
DeliveryCallback = Callable[[Packet], None]
FailureCallback = Callable[[Packet, int], None]   # (packet, failed_at_node)

#: Seconds a sender burns learning that a hop is out of range.
FAILURE_TIMEOUT = 0.02


class WirelessNetwork:
    """Simulated wireless network: nodes + medium + MAC + energy."""

    def __init__(
        self,
        sim: Simulator,
        rng: random.Random,
        mac_config: MacConfig = MacConfig(),
        energy_model: EnergyModel = EnergyModel(),
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.sim = sim
        #: The run's telemetry bundle (None on plain runs).  The
        #: registry below is always present — stats views and the
        #: energy ledger write through it either way, which is what
        #: keeps disabled-telemetry runs byte-identical: the counters
        #: replicate the exact arithmetic the old ad-hoc dicts did.
        self.telemetry = telemetry
        self.registry: Registry = (
            telemetry.registry if telemetry is not None else Registry()
        )
        self.flight = telemetry.flight if telemetry is not None else None
        self.medium = WirelessMedium()
        #: ``node(node_id) -> Node`` (``NetworkError`` on an unknown id).
        self.node = self.medium.node
        self.mac = ContentionMac(sim, self.medium, rng, mac_config)
        if telemetry is not None and telemetry.profiler is not None:
            self.mac.profiler = telemetry.profiler
        self.energy = EnergyLedger(energy_model, registry=self.registry)
        self._trace_events = self.registry.counter(
            "trace_events", "trace records by category", labels=("category",)
        ).held()
        self._rng = rng
        self._handlers: Dict[int, ReceiveHandler] = {}
        # Path-level outcomes of :meth:`send_along_path` plus the hop
        # failure tally, as registry counters (see the properties below
        # for the semantics the old plain-int attributes had).
        self._delivered_ctr = self.registry.counter(
            "net_delivered_packets", "send_along_path relays completed"
        )
        self._dropped_ctr = self.registry.counter(
            "net_dropped_packets", "send_along_path relays abandoned"
        )
        self._hop_fail_ctr = self.registry.counter(
            "net_hop_failures", "failed hop attempts by cause",
            labels=("cause",),
        )
        self._hop_fails = self._hop_fail_ctr.held()

    @property
    def delivered_packets(self) -> int:
        """Path-level outcomes of :meth:`send_along_path`: a relay that
        reaches the end of its path counts as delivered, a relay whose
        hop fails counts as dropped.  Protocols that drive :meth:`send`
        directly (and recover locally) are accounted by their own
        stats, not here."""
        return self._delivered_ctr.value

    @property
    def dropped_packets(self) -> int:
        return self._dropped_ctr.value

    @property
    def hop_failures(self) -> int:
        """Every failed hop *attempt* anywhere — including hops whose
        packet the protocol then recovers over another path, so this is
        always >= the end-to-end drop counts."""
        return sum(
            metric.value for _, metric in self._hop_fail_ctr.items()
        )

    # -- topology -----------------------------------------------------------

    def add_node(self, node: Node) -> None:
        self.medium.add_node(node)

    def nodes(self) -> List[Node]:
        return self.medium.nodes()

    def neighbors(
        self, node_id: int, require_usable: bool = True
    ) -> Tuple[int, ...]:
        return self.medium.neighbors(node_id, self.sim.now, require_usable)

    def set_receive_handler(self, node_id: int, handler: ReceiveHandler) -> None:
        """Protocol hook invoked when a packet's final hop delivers here."""
        self._handlers[node_id] = handler

    def handler_of(self, node_id: int) -> Optional[ReceiveHandler]:
        """The registered receive handler (None if the node has none).

        Link layers that take over final-hop delivery (the recovery
        ARQ) use this to invoke the handler exactly once per packet,
        duplicates suppressed."""
        return self._handlers.get(node_id)

    # -- direct energy accounting ---------------------------------------------

    def charge_tx(self, node_id: int, kind: str) -> None:
        """Charge one transmission of traffic class ``kind``: energy
        ledger and battery, no radio event scheduled."""
        self.energy.charge_tx(node_id, kind=kind)
        self.node(node_id).drain(self.energy.model.tx_joules)

    def charge_rx(self, node_id: int, kind: str) -> None:
        """Charge one reception (ledger + battery)."""
        self.energy.charge_rx(node_id, kind=kind)
        self.node(node_id).drain(self.energy.model.rx_joules)

    def charge_rx_each(self, node_ids: Sequence[int], kind: str) -> None:
        """Charge one reception to each of ``node_ids``, in order: a
        broadcast heard by a neighbour list."""
        self.energy.charge_rx_each(node_ids, kind=kind)
        joules = self.energy.model.rx_joules
        table = self.medium.node_table
        try:
            for node_id in node_ids:
                table[node_id].consumed_joules += joules
        except KeyError as exc:
            raise NetworkError(f"unknown node id {exc.args[0]}") from None

    def charge_control_tx(self, node_id: int) -> None:
        """Charge one control-message transmission (bookkeeping
        exchanges whose timing is immaterial)."""
        self.charge_tx(node_id, "control")

    def charge_control_rx(self, node_id: int) -> None:
        """Charge one control-message reception."""
        self.charge_rx(node_id, "control")

    # -- fault API -------------------------------------------------------------

    def fail_node(self, node_id: int) -> None:
        self.node(node_id).failed = True

    def recover_node(self, node_id: int) -> None:
        self.node(node_id).failed = False

    # -- one-hop unicast ---------------------------------------------------------

    def send(
        self,
        src_id: int,
        dst_id: int,
        packet: Packet,
        on_delivered: Optional[DeliveryCallback] = None,
        on_failed: Optional[FailureCallback] = None,
        deliver_to_handler: bool = True,
    ) -> None:
        """Transmit one hop.  Energy: tx always charged (the radio spends
        it whether or not the frame arrives), rx charged on success.

        Failure paths: source unusable (immediate), destination out of
        range or unusable (discovered after ``FAILURE_TIMEOUT`` — the
        sender burns its retries before concluding the link is gone),
        MAC loss after retries.
        """
        now = self.sim.now
        flight = self.flight
        src = self.node(src_id)
        if not src.usable:
            if flight is not None:
                flight.hop_fail(packet.uid, now, src_id, dst_id, "src-unusable")
            self._fail(packet, src_id, on_failed, delay=0.0,
                       cause="src-unusable")
            return
        qos = self.mac.qos
        if qos is not None:
            # QoS admission at the hop, before any energy is charged:
            # an expired, shed, or queue-refused frame costs nothing.
            refusal = qos.refusal(src_id, dst_id, packet, now)
            if refusal is not None:
                packet.meta["drop_reason"] = refusal
                packet.meta["qos_terminal"] = refusal
                if flight is not None:
                    flight.hop_fail(packet.uid, now, src_id, dst_id, refusal)
                self._fail(packet, src_id, on_failed, delay=0.0, cause=refusal)
                return
        packet.record_hop(src_id)
        if flight is not None:
            flight.hop_tx(
                packet.uid, now, src_id, dst_id,
                queued=src.radio_busy_until > now,
            )
        kind = packet.kind.label
        energy = self.energy
        energy.charge_tx(src_id, kind=kind)
        src.drain(energy.model.tx_joules)
        if not self.medium.can_transmit(src_id, dst_id, now):
            self._trace_events["link_break"].inc()
            if flight is not None:
                flight.hop_fail(packet.uid, now, src_id, dst_id, "link-break")
            self._fail(
                packet, src_id, on_failed,
                delay=FAILURE_TIMEOUT,
                cause="link-break",
            )
            return

        def complete(success: bool, at: float) -> None:
            dst = self.medium.node(dst_id)
            if not success or not dst.usable:
                cause = "mac-loss" if not success else "dst-unusable"
                # A frame the QoS scheduler condemned (expired while
                # queued) surfaces as a MAC failure; keep its reason.
                terminal = packet.meta.get("qos_terminal")
                if terminal is not None:
                    cause = terminal
                self._trace_events["mac_drop"].inc()
                if flight is not None:
                    flight.hop_fail(packet.uid, at, src_id, dst_id, cause)
                self._fail(packet, src_id, on_failed, delay=0.0, cause=cause)
                return
            if flight is not None:
                flight.hop_rx(packet.uid, at, src_id, dst_id)
            energy.charge_rx(dst_id, kind=kind)
            dst.drain(energy.model.rx_joules)
            if on_delivered is not None:
                on_delivered(packet)
            if deliver_to_handler:
                handler = self._handlers.get(dst_id)
                if handler is not None:
                    handler(packet)

        self.mac.transmit(src_id, dst_id, packet, complete)

    def _fail(
        self,
        packet: Packet,
        at_node: int,
        on_failed: Optional[FailureCallback],
        delay: float,
        cause: str = "mac-loss",
    ) -> None:
        self._hop_fails[cause].inc()
        if on_failed is None:
            return
        if delay > 0:
            self.sim.schedule(delay, lambda: on_failed(packet, at_node))
        else:
            on_failed(packet, at_node)

    # -- multi-hop relay -----------------------------------------------------------

    def send_along_path(
        self,
        path: Sequence[int],
        packet: Packet,
        on_delivered: Optional[DeliveryCallback] = None,
        on_failed: Optional[FailureCallback] = None,
    ) -> None:
        """Relay ``packet`` hop-by-hop along ``path`` (list of node ids).

        The receive handler fires only at the final node.  On any hop
        failure, ``on_failed`` gets the id of the node that could not
        forward — protocols use that to trigger their repair logic.

        Accounting: a hop failure ends this relay attempt, so it bumps
        both :attr:`hop_failures` (via the hop machinery) and
        :attr:`dropped_packets` (the end-to-end outcome of the attempt);
        a retransmission after repair is a fresh attempt.
        """
        if len(path) < 1:
            raise NetworkError("empty path")
        if len(path) == 1:
            self._delivered_ctr.inc()
            if on_delivered is not None:
                on_delivered(packet)
            handler = self._handlers.get(path[0])
            if handler is not None:
                handler(packet)
            return

        def path_failed(pkt: Packet, at_node: int) -> None:
            self._dropped_ctr.inc()
            if pkt.meta.get("drop_reason") is None:
                pkt.meta["drop_reason"] = "path-hop-failed"
            if on_failed is not None:
                on_failed(pkt, at_node)

        def hop(index: int) -> None:
            last = index + 1 == len(path) - 1

            def delivered(pkt: Packet) -> None:
                if last:
                    self._delivered_ctr.inc()
                    if on_delivered is not None:
                        on_delivered(pkt)
                else:
                    hop(index + 1)

            self.send(
                path[index],
                path[index + 1],
                packet,
                on_delivered=delivered,
                on_failed=path_failed,
                deliver_to_handler=last,
            )

        hop(0)

    # -- flooding -------------------------------------------------------------------

    def flood(
        self,
        src_id: int,
        ttl: int,
        size_bytes: int = 64,
        kind: PacketKind = PacketKind.QUERY,
        on_complete: Optional[Callable[[Dict[int, Tuple[int, Optional[int]]]], None]] = None,
    ) -> Dict[int, Tuple[int, Optional[int]]]:
        """TTL-bounded broadcast flood from ``src_id``.

        Returns (and optionally calls back with) the flood tree:
        ``{node_id: (hop_distance, parent_id)}`` over usable nodes.
        Energy is charged as real flooding would: every reached node
        rebroadcasts once (tx), every reception over every edge of the
        reachability graph is charged (rx).  The completion callback is
        delayed by one broadcast airtime per flood level; a flood nobody
        forwards (``ttl=0``, unusable source) completes at ``now``.
        A negative ``ttl`` raises ``NetworkError``.

        The per-duplicate packet events are *not* individually simulated
        — this is the documented shortcut that keeps 400-node broadcast
        storms tractable while preserving their energy and latency cost.
        """
        now = self.sim.now
        tree, level_sizes = self._spread([src_id], ttl)
        if not tree:
            if on_complete is not None:
                self.sim.schedule(0.0, lambda: on_complete(tree))
            return tree
        # Broadcast-storm timing: within one flood level every forwarder
        # contends with the others, so a level takes one airtime plus a
        # deferral slot per concurrent transmitter; each forwarder's
        # radio is occupied while its level drains.
        airtime = self.mac.broadcast_airtime(size_bytes)
        level_latency: List[float] = [0.0]
        for width in level_sizes[:-1]:
            step = airtime + PROCESSING_DELAY + SLOT_SECONDS * width
            level_latency.append(level_latency[-1] + step)
        # Every node that holds the message rebroadcasts once, except
        # leaves at the TTL horizon which receive but do not forward.
        for node_id, (hops, _) in tree.items():
            if hops >= ttl:
                continue
            self.charge_tx(node_id, "flood")
            node = self.node(node_id)
            # A forwarder contends for the medium until its whole flood
            # level has drained — the broadcast-storm cost that lets
            # repair floods steal airtime from concurrent data traffic.
            level_end = level_latency[
                min(hops + 1, len(level_latency) - 1)
            ]
            node.radio_busy_until = max(
                node.radio_busy_until, now + max(level_end, airtime)
            )
        self._trace_events["flood"].inc()
        if on_complete is not None:
            self.sim.schedule(level_latency[-1], lambda: on_complete(tree))
        return tree

    def flood_multi(
        self,
        src_ids: Sequence[int],
        ttl: int,
        size_bytes: int = 64,
    ) -> Dict[int, Tuple[int, Optional[int]]]:
        """A joint flood from several sources (DaTree construction).

        Every node forwards only the *first* copy it hears, so the
        total transmission count is one per reached node regardless of
        the number of sources — the region is partitioned between the
        sources.  Tree entries for the sources themselves have parent
        ``None``; every other node's parent leads back to the source
        whose wave reached it first.
        """
        tree, _ = self._spread(src_ids, ttl)
        for node_id, (hops, _) in tree.items():
            if hops < ttl:
                self.charge_tx(node_id, "flood")
        return tree

    def _spread(
        self, src_ids: Sequence[int], ttl: int
    ) -> Tuple[Dict[int, Tuple[int, Optional[int]]], List[int]]:
        """Spread a flood breadth-first from the usable ``src_ids``,
        charging every reception; returns the tree and the number of
        new holders per level."""
        if ttl < 0:
            raise NetworkError(f"flood ttl must be >= 0, got {ttl}")
        tree: Dict[int, Tuple[int, Optional[int]]] = {}
        frontier: List[int] = []
        for src_id in src_ids:
            if self.node(src_id).usable and src_id not in tree:
                tree[src_id] = (0, None)
                frontier.append(src_id)
        level_sizes = [len(frontier)]
        depth = 0
        while frontier and depth < ttl:
            depth += 1
            next_frontier: List[int] = []
            for node_id in frontier:
                # One batch per forwarder: its drains land before the
                # next neighbour list is read.
                heard = self.neighbors(node_id)
                self.charge_rx_each(heard, "flood")
                for nb in heard:
                    if nb not in tree:
                        tree[nb] = (depth, node_id)
                        next_frontier.append(nb)
            frontier = next_frontier
            level_sizes.append(len(frontier))
        return tree, level_sizes

    # -- metrics helpers ----------------------------------------------------------------

    def set_phase(self, phase: Phase) -> None:
        """Switch the energy ledger between construction/communication."""
        self.energy.set_phase(phase)

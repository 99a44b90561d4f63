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
from collections import Counter
from itertools import chain, islice
from typing import Callable, Collection, Dict, List, Optional, Sequence, Tuple

from repro.errors import NetworkError
from repro.net.energy import RX_JOULES, TX_JOULES, EnergyLedger, Phase
from repro.net.mac import PROCESSING_DELAY, SLOT_SECONDS, ContentionMac
from repro.net.medium import WirelessMedium
from repro.net.node import Node
from repro.net.packet import Packet, PacketKind
from repro.sim.core import Simulator
from repro.telemetry.config import Telemetry
from repro.telemetry.registry import Registry

DeliveryCallback = Callable[[Packet], None]
#: ``(packet, cause)``: ``cause`` is the entry of
#: :data:`~repro.telemetry.flight.HOP_FAIL_CAUSES` the hop failed with.
FailureCallback = Callable[[Packet, str], None]

#: Hop failure causes that condemn the packet, not the hop: a QoS
#: refusal every other hop would repeat.  Each is also the drop reason
#: of a packet given up on for it.
QOS_VERDICTS = frozenset({"deadline_expired", "backpressure_shed"})

#: Seconds a sender burns learning that a hop is out of range.
FAILURE_TIMEOUT = 0.02

#: ``_BIT[k]`` is the byte with bit ``k`` set.
_BIT = tuple(1 << k for k in range(8))


def _mask(node_ids: Collection[int]) -> int:
    """The int with bit ``i`` set for each ``i`` in ``node_ids``: built
    in a bytearray, so no int wider than a byte is made per id."""
    if not node_ids:
        return 0
    buf = bytearray((max(node_ids) >> 3) + 1)
    for node_id in node_ids:
        buf[node_id >> 3] |= _BIT[node_id & 7]
    return int.from_bytes(buf, "little")


class WirelessNetwork:
    """Simulated wireless network: nodes + medium + MAC + energy."""

    def __init__(
        self,
        sim: Simulator,
        rng: random.Random,
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
        self.mac = ContentionMac(sim, self.medium, rng)
        if telemetry is not None:
            self.mac.profiler = telemetry.profiler
        #: QoS hook (:class:`repro.qos.mac.MacQosScheduler`): when set,
        #: :meth:`send` asks it to refuse a frame, then hands the frame
        #: to its per-node priority queues instead of the MAC; it calls
        #: back into ``ContentionMac.service_frame`` when the frame wins
        #: service.  The MAC does not know it, so nothing refers back.
        self.qos = None
        self.energy = EnergyLedger(registry=self.registry)
        self._rng = rng
        # Path-level outcomes of :meth:`send_along_path` (a relay that
        # reaches the end of its path is delivered, one whose hop fails
        # is dropped; protocols that drive :meth:`send` directly count
        # their own) and every failed hop attempt, recovered or not.
        self._delivered_ctr = self.registry.counter(
            "net_delivered_packets", "send_along_path relays completed"
        )
        self._dropped_ctr = self.registry.counter(
            "net_dropped_packets", "send_along_path relays abandoned"
        )
        self._hop_fails = self.registry.counter(
            "net_hop_failures", "failed hop attempts by cause",
            labels=("cause",),
        ).held()

    # -- topology -----------------------------------------------------------

    def add_node(self, node: Node) -> None:
        self.medium.add_node(node)

    def neighbors(
        self, node_id: int, require_usable: bool = True
    ) -> Tuple[int, ...]:
        return self.medium.neighbors(node_id, self.sim.now, require_usable)

    # -- direct energy accounting ---------------------------------------------

    def charge_tx(self, node_id: int, kind: str) -> None:
        """Charge one transmission of traffic class ``kind``: energy
        ledger and battery, no radio event scheduled."""
        node = self.node(node_id)
        self.energy.charge_tx(node_id, kind=kind)
        node.drain(TX_JOULES)

    def charge_rx(self, node_id: int, kind: str) -> None:
        """Charge one reception (ledger + battery)."""
        node = self.node(node_id)
        self.energy.charge_rx(node_id, kind=kind)
        node.drain(RX_JOULES)

    def charge_rx_each(self, node_ids: Sequence[int], kind: str) -> None:
        """Charge one reception to each of ``node_ids``, in order: a
        broadcast heard by a neighbour list.  Every id is resolved
        before anything is charged."""
        nodes = self.medium.resolve(node_ids)
        self.energy.charge_rx_each(node_ids, kind=kind)
        for node in nodes:
            node.consumed_joules += RX_JOULES

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
    ) -> None:
        """Transmit one hop.  Energy: tx always charged (the radio spends
        it whether or not the frame arrives), rx charged on success.

        Failure paths: source unusable (immediate), QoS refusal
        (immediate, costs nothing), destination out of range or unusable
        (discovered after ``FAILURE_TIMEOUT`` — the sender burns its
        retries before concluding the link is gone), MAC loss after
        retries or a QoS verdict on the queued frame.  ``on_failed``
        gets the packet and the cause.
        """
        now = self.sim.now
        flight = self.flight
        src = self.node(src_id)
        if not src.usable:
            self._fail(packet, src_id, dst_id, on_failed, "src-unusable", now)
            return
        qos = self.qos
        if qos is not None:
            # QoS admission at the hop, before any energy is charged:
            # an expired, shed, or queue-refused frame costs nothing.
            refusal = qos.refusal(src_id, dst_id, packet, now)
            if refusal is not None:
                self._fail(packet, src_id, dst_id, on_failed, refusal, now)
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
        src.drain(TX_JOULES)
        if not self.medium.can_transmit(src_id, dst_id, now):
            self._fail(
                packet, src_id, dst_id, on_failed, "link-break", now,
                delay=FAILURE_TIMEOUT,
            )
            return

        def complete(cause: Optional[str], at: float) -> None:
            dst = self.medium.node(dst_id)
            if cause is None and not dst.usable:
                cause = "dst-unusable"
            if cause is not None:
                self._fail(packet, src_id, dst_id, on_failed, cause, at)
                return
            if flight is not None:
                flight.hop_rx(packet.uid, at, src_id, dst_id)
            energy.charge_rx(dst_id, kind=kind)
            dst.drain(RX_JOULES)
            if on_delivered is not None:
                on_delivered(packet)

        if qos is not None:
            qos.submit(src_id, dst_id, packet, complete)
        else:
            self.mac.transmit(src_id, dst_id, packet, complete)

    def _fail(
        self,
        packet: Packet,
        src_id: int,
        dst_id: int,
        on_failed: Optional[FailureCallback],
        cause: str,
        at: float,
        delay: float = 0.0,
    ) -> None:
        """The one exit of a failed hop: record it at ``at`` (flight
        recorder, ``net_hop_failures{cause}``) and hand ``cause`` to
        ``on_failed``, ``delay`` seconds later."""
        if self.flight is not None:
            self.flight.hop_fail(packet.uid, at, src_id, dst_id, cause)
        self._hop_fails[cause].inc()
        if on_failed is None:
            return
        if delay > 0:
            self.sim.schedule(delay, lambda: on_failed(packet, cause))
        else:
            on_failed(packet, cause)

    # -- multi-hop relay -----------------------------------------------------------

    def send_along_path(
        self,
        path: Sequence[int],
        packet: Packet,
        on_delivered: Optional[DeliveryCallback] = None,
        on_failed: Optional[FailureCallback] = None,
    ) -> None:
        """Relay ``packet`` hop-by-hop along ``path`` (list of node ids).

        ``on_delivered`` fires once, when the final node has the packet
        (at once for a one-node path).  On any hop failure,
        ``on_failed`` gets the packet and the hop's cause — protocols
        use that to trigger their repair logic.

        Accounting: a hop failure ends this relay attempt, so it bumps
        both ``net_hop_failures`` (via the hop machinery) and
        ``net_dropped_packets`` (the end-to-end outcome of the attempt);
        a retransmission after repair is a fresh attempt.
        """
        if len(path) < 1:
            raise NetworkError("empty path")
        if len(path) == 1:
            self._delivered_ctr.inc()
            if on_delivered is not None:
                on_delivered(packet)
            return

        def path_failed(pkt: Packet, cause: str) -> None:
            self._dropped_ctr.inc()
            if on_failed is not None:
                on_failed(pkt, cause)

        self._relay(path, 0, packet, on_delivered, path_failed)

    def _relay(
        self,
        path: Sequence[int],
        index: int,
        packet: Packet,
        on_delivered: Optional[DeliveryCallback],
        path_failed: FailureCallback,
    ) -> None:
        """Send hop ``index`` of a :meth:`send_along_path` relay.

        A delivery sends the next hop through a fresh call, so no
        callback refers to itself and a finished relay is freed by
        reference counting alone: no cycle is left for the collector.
        """
        last = index + 1 == len(path) - 1

        def delivered(pkt: Packet) -> None:
            if last:
                self._delivered_ctr.inc()
                if on_delivered is not None:
                    on_delivered(pkt)
            else:
                self._relay(path, index + 1, packet, on_delivered, path_failed)

        self.send(
            path[index],
            path[index + 1],
            packet,
            on_delivered=delivered,
            on_failed=path_failed,
        )

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
        forwarders = self._charge_forwarders(tree, ttl)
        # A forwarder contends for the medium until its whole flood
        # level has drained — the broadcast-storm cost that lets repair
        # floods steal airtime from concurrent data traffic.  Only a
        # raise is written: a radio busy at least as long is filed.
        last = len(level_latency) - 1
        busy_until = [
            now + max(level_latency[min(hops + 1, last)], airtime)
            for hops in range(len(level_latency))
        ]
        table = self.medium.node_table
        for node_id in forwarders:
            until = busy_until[tree[node_id][0]]
            node = table[node_id]
            if until > node.radio_busy_until:
                node.radio_busy_until = until
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
        self._charge_forwarders(tree, ttl)
        return tree

    def _charge_forwarders(
        self, tree: Dict[int, Tuple[int, Optional[int]]], ttl: int
    ) -> List[int]:
        """Charge one flood transmission to every tree node short of the
        TTL horizon, in tree order; returns those forwarders."""
        forwarders = [
            node_id for node_id, (hops, _) in tree.items() if hops < ttl
        ]
        self.energy.charge_tx_each(forwarders, "flood")
        table = self.medium.node_table
        for node_id in forwarders:
            table[node_id].consumed_joules += TX_JOULES
        return forwarders

    def _spread(
        self, src_ids: Sequence[int], ttl: int
    ) -> Tuple[Dict[int, Tuple[int, Optional[int]]], List[int]]:
        """Spread a flood breadth-first from the usable ``src_ids``,
        charging every reception; returns the tree and the number of
        new holders per level.

        The medium's geometry for the bucket is surveyed first: one
        grid pass over the whole registry, each pair's distance once
        (a TTL-limited flood in a fresh bucket pays for the whole
        field).  A forwarder's list is read straight from the bucket's
        tuples the survey returns, and computed by ``neighbors`` the
        first time; its bitmask (bit ``i`` = node ``i``) is made at the
        bucket's first flood through it and kept beside the tuple.  Each
        forwarder, in breadth-first order, adds the bits of ``mask &
        ~seen`` to the tree, ascending — the order its tuple lists them
        in: a Python step per node reached, not per edge.

        Liveness is each neighbour list's, read when the forwarder's
        list is first asked for.  A metered battery (``battery_joules``
        set, so its node is in the medium's watch, where the flood looks
        for them) is drained by each reception as it is heard, so a node
        the flood exhausts is gone from the next list computed.  The
        receptions are counted at the end, in first-heard order, and the
        count is filed in the bucket under the forwarders' mask with the
        ledger phase: a later flood of the bucket through the same
        forwarders, in the same phase, reuses it.  Its values are the
        same (so are the forwarders' tuples); its order is the first
        flood's, which already created every ledger child the count
        names.  An unmetered node is drained ``count * RX_JOULES`` at
        once and the ledger is charged by count (both exact, and nothing
        reads an unmetered node's joules mid-flood: see
        :mod:`repro.net.energy`).
        """
        if ttl < 0:
            raise NetworkError(f"flood ttl must be >= 0, got {ttl}")
        tree: Dict[int, Tuple[int, Optional[int]]] = {}
        frontier: List[int] = []
        for src_id in src_ids:
            if self.node(src_id).usable and src_id not in tree:
                tree[src_id] = (0, None)
                frontier.append(src_id)
        level_sizes = [len(frontier)]
        if not (frontier and ttl):
            return tree, level_sizes
        now = self.sim.now
        medium = self.medium
        tuples, masks, counts = medium.survey(now)
        table = medium.node_table
        # Only a watched node was ever metered (``WirelessMedium.watched``).
        metered_ids = {
            node_id for node_id in medium.watched
            if table[node_id].battery_joules is not None
        }
        metered = _mask(metered_ids)
        seen = _mask(frontier)
        depth = 0
        while frontier and depth < ttl:
            depth += 1
            start = len(tree)
            forwarded = seen
            for node_id in frontier:
                mask = masks.get(node_id)
                if mask is None:
                    heard = tuples.get(node_id)
                    if heard is None:
                        heard = medium.neighbors(node_id, now)
                    mask = masks[node_id] = _mask(heard)
                drained = mask & metered
                while drained:
                    low = drained & -drained
                    table[low.bit_length() - 1].consumed_joules += RX_JOULES
                    drained ^= low
                new = mask & ~seen
                seen |= new
                while new:
                    low = new & -new
                    tree[low.bit_length() - 1] = (depth, node_id)
                    new ^= low
            frontier = list(islice(tree, start, None))
            level_sizes.append(len(frontier))
        # The forwarders are the tree but its last level: ``forwarded``,
        # ``seen`` before that level.  Their tuples are the bucket's, so
        # the bucket's floods through one set share one count, filed with
        # the phase whose ledger children its first flood created.
        phase = self.energy.phase
        filed = counts.get(forwarded)
        if filed is not None and filed[0] is phase:
            received = filed[1]
        else:
            forwarders = islice(tree, len(tree) - level_sizes[-1])
            received = Counter(
                chain.from_iterable(map(tuples.__getitem__, forwarders))
            )
            counts[forwarded] = phase, received
        for node_id, count in received.items():
            if node_id not in metered_ids:
                table[node_id].consumed_joules += count * RX_JOULES
        self.energy.charge_rx_counts(received, "flood")
        return tree, level_sizes

    # -- metrics helpers ----------------------------------------------------------------

    def set_phase(self, phase: Phase) -> None:
        """Switch the energy ledger between construction/communication."""
        self.energy.set_phase(phase)

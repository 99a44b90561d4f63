"""Per-hop ARQ between the router and the MAC.

The seed's only loss defence below the routing layer is the MAC's
3-frame retry inside one transmission; a Gilbert-Elliott burst longer
than that becomes an end-to-end hop failure and triggers Theorem 3.8
path switching (or a drop).  :class:`ArqLink` inserts a network-layer
stop-and-wait ARQ per hop:

* every hop gets a per-``(src, dst)`` sequence number;
* a failed data frame is retransmitted after an exponential backoff
  with deterministic jitter (drawn from a dedicated ``RngStreams``
  stream), up to a bounded budget;
* the receiver acknowledges each frame; a lost ACK makes the sender
  retransmit a frame the receiver already has, which the receiver's
  bounded duplicate-suppression cache absorbs;
* the receiver forwards (invokes ``on_delivered`` / the receive
  handler) on *first* arrival — it does not wait to learn whether its
  ACK survived — so a lost ACK costs airtime and energy, never a
  duplicate delivery.

``on_failed`` fires only when no attempt's data frame arrived within
the budget, so the router's detour logic sees exactly the semantics of
``WirelessNetwork.send`` with transient losses absorbed.  ACK frames
are charged to the energy ledger under the ``ack`` kind.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

from repro.net.mac import PROCESSING_DELAY, airtime
from repro.net.network import (
    DeliveryCallback,
    FailureCallback,
    WirelessNetwork,
)
from repro.net.packet import Packet, PacketKind
from repro.telemetry.views import StatsView, counter_field

__all__ = ["ArqLink", "ArqStats"]

#: Network-layer ACK frame size.
ACK_BYTES = 14
#: Seconds from a data frame's arrival to its ACK's.
ACK_DELAY = airtime(ACK_BYTES) + PROCESSING_DELAY
#: Probability an ACK frame is lost (exercises the duplicate path).
ACK_LOSS = 0.01
#: Retransmissions allowed beyond a hop's first attempt.
BUDGET = 2
#: Seconds before the first retransmission; each later one waits
#: ``BACKOFF_FACTOR`` times longer.
BACKOFF = 0.01
BACKOFF_FACTOR = 2.0
#: Relative half-width of the uniform jitter on each backoff (0: none).
JITTER = 0.5
#: Recently accepted ``(sender, seq)`` tags each receiver remembers to
#: suppress duplicates.
CACHE_SIZE = 512


class ArqStats(StatsView):
    """Counters of one ARQ link layer (``arq_*`` registry metrics)."""

    _group = "arq"

    sends = counter_field("logical hops requested")
    attempts = counter_field("data frames transmitted")
    retransmissions = counter_field("attempts beyond the first")
    recovered_by_retransmit = counter_field("hops saved by a retransmission")
    exhausted = counter_field("budgets spent without an ACK")
    duplicates_suppressed = counter_field("redundant arrivals absorbed")
    ack_losses = counter_field("ACK frames lost")


class _HopState:
    """Sender-side progress of one logical hop."""

    __slots__ = ("delivered", "done")

    def __init__(self) -> None:
        self.delivered = False
        self.done = False


class ArqLink:
    """Stop-and-wait ARQ presenting the ``WirelessNetwork.send`` API."""

    def __init__(
        self,
        network: WirelessNetwork,
        rng: random.Random,
        on_recovered: Optional[Callable[[], None]] = None,
    ) -> None:
        """``on_recovered`` fires once per hop saved by a retransmission
        (the router hooks its ``retransmit_recovered`` stat here)."""
        self._network = network
        self._rng = rng
        self._on_recovered = on_recovered
        self.stats = ArqStats(registry=network.registry)
        self._seq: Dict[Tuple[int, int], int] = {}
        # receiver -> (sender, seq) LRU of recently accepted frames
        self._seen: Dict[int, "OrderedDict[Tuple[int, int], None]"] = {}

    # -- the network.send-compatible entry point ---------------------------

    def send(
        self,
        src_id: int,
        dst_id: int,
        packet: Packet,
        on_delivered: Optional[DeliveryCallback] = None,
        on_failed: Optional[FailureCallback] = None,
        deliver_to_handler: bool = True,
    ) -> None:
        """One reliable hop src -> dst (same contract as
        ``WirelessNetwork.send``, with transient losses absorbed)."""
        key = (src_id, dst_id)
        seq = self._seq.get(key, 0) + 1
        self._seq[key] = seq
        self.stats.sends += 1
        self._attempt(
            src_id, dst_id, packet, (src_id, seq), 0, _HopState(),
            on_delivered, on_failed, deliver_to_handler,
        )

    # -- attempt machinery -------------------------------------------------

    def _attempt(
        self,
        src_id: int,
        dst_id: int,
        packet: Packet,
        tag: Tuple[int, int],
        attempt: int,
        hop: _HopState,
        on_delivered: Optional[DeliveryCallback],
        on_failed: Optional[FailureCallback],
        deliver_to_handler: bool,
    ) -> None:
        if hop.done:
            return
        self.stats.attempts += 1
        if attempt > 0:
            self.stats.retransmissions += 1
            flight = self._network.flight
            if flight is not None:
                flight.arq_retry(
                    packet.uid, self._network.sim.now, src_id, dst_id,
                    attempt,
                )

        def data_arrived(pkt: Packet) -> None:
            self._data_arrived(
                src_id, dst_id, pkt, tag, attempt, hop,
                on_delivered, on_failed, deliver_to_handler,
            )

        def data_failed(pkt: Packet, at: int) -> None:
            self._retry_or_fail(
                src_id, dst_id, pkt, tag, attempt, hop,
                on_delivered, on_failed, deliver_to_handler,
            )

        self._network.send(
            src_id,
            dst_id,
            packet,
            on_delivered=data_arrived,
            on_failed=data_failed,
            deliver_to_handler=False,
        )

    def _data_arrived(
        self,
        src_id: int,
        dst_id: int,
        packet: Packet,
        tag: Tuple[int, int],
        attempt: int,
        hop: _HopState,
        on_delivered: Optional[DeliveryCallback],
        on_failed: Optional[FailureCallback],
        deliver_to_handler: bool,
    ) -> None:
        cache = self._seen.get(dst_id)
        if cache is None:
            cache = OrderedDict()
            self._seen[dst_id] = cache
        duplicate = tag in cache
        if duplicate:
            self.stats.duplicates_suppressed += 1
            cache.move_to_end(tag)
        else:
            cache[tag] = None
            while len(cache) > CACHE_SIZE:
                cache.popitem(last=False)
        first_delivery = not duplicate and not hop.delivered
        if first_delivery:
            hop.delivered = True
            if attempt > 0:
                self.stats.recovered_by_retransmit += 1
                if self._on_recovered is not None:
                    self._on_recovered()
            # Forward on first arrival: the receiver does not wait to
            # learn whether its ACK survives.
            if on_delivered is not None:
                on_delivered(packet)
            if deliver_to_handler:
                handler = self._network.handler_of(dst_id)
                if handler is not None:
                    handler(packet)
        # The ACK frame: receiver pays tx, sender pays rx on arrival.
        self._network.charge_tx(dst_id, PacketKind.ACK.label)
        if self._rng.random() < ACK_LOSS:
            self.stats.ack_losses += 1
            # No ACK will come: the sender times out and retransmits.
            self._network.sim.schedule(
                ACK_DELAY,
                lambda: self._retry_or_fail(
                    src_id, dst_id, packet, tag, attempt, hop,
                    on_delivered, on_failed, deliver_to_handler,
                ),
            )
            return

        def ack_arrived() -> None:
            if hop.done:
                return
            hop.done = True
            self._network.charge_rx(src_id, PacketKind.ACK.label)

        self._network.sim.schedule(ACK_DELAY, ack_arrived)

    def _retry_or_fail(
        self,
        src_id: int,
        dst_id: int,
        packet: Packet,
        tag: Tuple[int, int],
        attempt: int,
        hop: _HopState,
        on_delivered: Optional[DeliveryCallback],
        on_failed: Optional[FailureCallback],
        deliver_to_handler: bool,
    ) -> None:
        if hop.done:
            return
        if packet.meta.get("qos_terminal") is not None:
            # The QoS layer condemned this frame (deadline expired or
            # shed under backpressure): every retransmission would be
            # refused the same way, so surface the failure immediately.
            hop.done = True
            if not hop.delivered and on_failed is not None:
                on_failed(packet, src_id)
            return
        if attempt >= BUDGET:
            hop.done = True
            self.stats.exhausted += 1
            if not hop.delivered and on_failed is not None:
                on_failed(packet, src_id)
            return
        delay = self._backoff_delay(attempt)
        self._network.sim.schedule(
            delay,
            lambda: self._attempt(
                src_id, dst_id, packet, tag, attempt + 1, hop,
                on_delivered, on_failed, deliver_to_handler,
            ),
        )

    def _backoff_delay(self, attempt: int) -> float:
        base = BACKOFF * (BACKOFF_FACTOR ** attempt)
        if JITTER > 0:
            base *= self._rng.uniform(1.0 - JITTER, 1.0 + JITTER)
        return base

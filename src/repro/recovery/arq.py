"""Per-hop ARQ between the router and the MAC.

The seed's only loss defence below the routing layer is the MAC's
3-frame retry inside one transmission; a Gilbert-Elliott burst longer
than that becomes an end-to-end hop failure and triggers Theorem 3.8
path switching (or a drop).  :class:`ArqLink` inserts a network-layer
stop-and-wait ARQ per hop:

* a failed data frame is retransmitted after an exponential backoff
  with deterministic jitter (drawn from a dedicated ``RngStreams``
  stream), up to a bounded budget;
* the receiver acknowledges each frame; a lost ACK makes the sender
  retransmit a frame the receiver already has, which the hop's
  ``delivered`` flag absorbs;
* the receiver forwards (invokes ``on_delivered``) on *first* arrival
  — it does not wait to learn whether its ACK survived — so a lost ACK
  costs airtime and energy, never a duplicate delivery.

``on_failed`` fires only when no attempt's data frame arrived within
the budget, so the router's detour logic sees exactly the semantics of
``WirelessNetwork.send`` with transient losses absorbed.  ACK frames
are charged to the energy ledger under the ``ack`` kind.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.net.mac import PROCESSING_DELAY, airtime
from repro.net.network import (
    QOS_VERDICTS,
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


class _Hop:
    """One logical hop: what was asked of it and how far it has got."""

    __slots__ = (
        "src", "dst", "packet", "on_delivered", "on_failed", "delivered",
        "done",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        packet: Packet,
        on_delivered: Optional[DeliveryCallback],
        on_failed: Optional[FailureCallback],
    ) -> None:
        self.src = src
        self.dst = dst
        self.packet = packet
        self.on_delivered = on_delivered
        self.on_failed = on_failed
        self.delivered = False
        self.done = False


class ArqLink:
    """Stop-and-wait ARQ presenting the ``WirelessNetwork.send`` API."""

    def __init__(self, network: WirelessNetwork, rng: random.Random) -> None:
        self._network = network
        self._rng = rng
        self.stats = ArqStats(registry=network.registry)

    # -- the network.send-compatible entry point ---------------------------

    def send(
        self,
        src_id: int,
        dst_id: int,
        packet: Packet,
        on_delivered: Optional[DeliveryCallback] = None,
        on_failed: Optional[FailureCallback] = None,
    ) -> None:
        """One reliable hop src -> dst (same contract as
        ``WirelessNetwork.send``, with transient losses absorbed)."""
        self.stats.sends += 1
        self._attempt(
            _Hop(src_id, dst_id, packet, on_delivered, on_failed), 0
        )

    # -- attempt machinery -------------------------------------------------

    def _attempt(self, hop: _Hop, attempt: int) -> None:
        if hop.done:
            return
        self.stats.attempts += 1
        if attempt > 0:
            self.stats.retransmissions += 1
            flight = self._network.flight
            if flight is not None:
                flight.arq_retry(
                    hop.packet.uid, self._network.sim.now, hop.src, hop.dst,
                    attempt,
                )
        self._network.send(
            hop.src,
            hop.dst,
            hop.packet,
            on_delivered=lambda pkt: self._data_arrived(hop, attempt),
            on_failed=lambda pkt, cause: self._retry_or_fail(
                hop, attempt, cause
            ),
        )

    def _data_arrived(self, hop: _Hop, attempt: int) -> None:
        if hop.delivered:
            self.stats.duplicates_suppressed += 1
        else:
            hop.delivered = True
            if attempt > 0:
                self.stats.recovered_by_retransmit += 1
            # Forward on first arrival: the receiver does not wait to
            # learn whether its ACK survives.
            if hop.on_delivered is not None:
                hop.on_delivered(hop.packet)
        # The ACK frame: receiver pays tx, sender pays rx on arrival.
        self._network.charge_tx(hop.dst, PacketKind.ACK.label)
        if self._rng.random() < ACK_LOSS:
            self.stats.ack_losses += 1
            # No ACK will come: the sender times out and retransmits.
            self._network.sim.schedule(
                ACK_DELAY, lambda: self._retry_or_fail(hop, attempt, None)
            )
            return

        def ack_arrived() -> None:
            if hop.done:
                return
            hop.done = True
            self._network.charge_rx(hop.src, PacketKind.ACK.label)

        self._network.sim.schedule(ACK_DELAY, ack_arrived)

    def _retry_or_fail(
        self, hop: _Hop, attempt: int, cause: Optional[str]
    ) -> None:
        """After attempt ``attempt`` failed with ``cause`` (None: its ACK
        timed out), retransmit or give the hop up with that cause."""
        if hop.done:
            return
        # A frame the QoS layer condemned (deadline expired or shed
        # under backpressure) would be refused the same way at every
        # retransmission, so its failure surfaces at once.
        condemned = cause in QOS_VERDICTS
        if condemned or attempt >= BUDGET:
            hop.done = True
            if not condemned:
                self.stats.exhausted += 1
            if not hop.delivered and hop.on_failed is not None:
                hop.on_failed(hop.packet, cause)
            return
        self._network.sim.schedule(
            self._backoff_delay(attempt),
            lambda: self._attempt(hop, attempt + 1),
        )

    def _backoff_delay(self, attempt: int) -> float:
        base = BACKOFF * (BACKOFF_FACTOR ** attempt)
        if JITTER > 0:
            base *= self._rng.uniform(1.0 - JITTER, 1.0 + JITTER)
        return base

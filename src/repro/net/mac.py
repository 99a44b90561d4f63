"""A CSMA-style contention MAC abstraction.

This is the 802.11 stand-in: per-node FIFO radio occupancy, carrier-
sense deferral proportional to the number of busy neighbouring radios,
random backoff, per-attempt loss probability that grows with local
contention, and a bounded retry budget.  The model reproduces the two
load effects the evaluation depends on — queueing delay at hot relays
and loss under congestion — without per-bit symbol simulation.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.net.medium import WirelessMedium
from repro.net.packet import Packet
from repro.sim.core import Simulator


#: Expected deferral per busy neighbouring radio, seconds.
SLOT_SECONDS = 0.0005
#: Per-hop forwarding latency, seconds.
PROCESSING_DELAY = 0.001
#: Cap on the contention-driven part of the per-attempt loss.
MAX_LOSS = 0.3
#: Radio bit rate (802.11 basic rate), bits/second.
BITRATE_BPS = 2_000_000.0
#: Floor frame-loss probability per attempt.
BASE_LOSS = 0.01
#: Extra per-attempt loss per busy neighbouring radio.
CONTENTION_LOSS = 0.01
#: Link-layer retransmissions after the first attempt.
RETRY_LIMIT = 3

#: ``on_result(cause, completion_time)``: ``cause`` is None for a frame
#: that arrived, else why it did not (``"mac-loss"``, or the QoS
#: scheduler's verdict on a frame it dropped from its queue).
ResultCallback = Callable[[Optional[str], float], None]


def airtime(size_bytes: int) -> float:
    """Seconds the radio is busy sending one frame."""
    return (size_bytes * 8.0) / BITRATE_BPS


class ContentionMac:
    """Schedules frame transmissions over the shared medium."""

    def __init__(
        self,
        sim: Simulator,
        medium: WirelessMedium,
        rng: random.Random,
    ) -> None:
        self._sim = sim
        self._medium = medium
        self._rng = rng
        # Telemetry hook (repro.telemetry.profiler): when set, every
        # transmission reports its frame attempts as bytes on air.
        # Observation only — it must never touch the RNG or timing.
        self.profiler = None

    def transmit(
        self,
        src_id: int,
        dst_id: int,
        packet: Packet,
        on_result: ResultCallback,
    ) -> None:
        """Send one frame src -> dst; reports ``(cause, completion_time)``
        (``cause`` None on success, see :data:`ResultCallback`).

        The frame waits for the sender's radio, defers for contention,
        and is retried up to :data:`RETRY_LIMIT` times on loss.  Whether the
        destination is *reachable* is the caller's concern (checked at
        the network layer at the moment of transmission); this layer
        models only timing and stochastic loss.
        """
        self.service_frame(src_id, dst_id, packet, on_result)

    def service_frame(
        self,
        src_id: int,
        dst_id: int,
        packet: Packet,
        on_result: ResultCallback,
    ) -> float:
        """Put one frame on the air now; returns when the radio frees.

        This is the legacy ``transmit`` body: contention model, random
        backoff, bounded retries.  The return value (the sender's
        ``radio_busy_until``) lets the QoS scheduler serve its queue
        frame-by-frame.
        """
        src = self._medium.node(src_id)
        now = self._sim.now
        start = max(now, src.radio_busy_until)
        contention = self._medium.contention_at(src_id, now)
        frame_airtime = airtime(packet.size_bytes)
        # Per-attempt loss: the floor plus a capped contention share.
        # It shares the frame's one contention_at with the backoff.
        extra = min(CONTENTION_LOSS * contention, MAX_LOSS)
        loss_p = min(BASE_LOSS + extra, 1.0)

        elapsed = start - now
        cause: Optional[str] = "mac-loss"
        attempts = 0
        # SLOT_SECONDS * contention is loop-invariant; multiplying the
        # uniform draw afterwards evaluates left-to-right exactly like
        # the original expression, so timings are bit-identical.
        slot_contention = SLOT_SECONDS * contention
        uniform = self._rng.uniform
        rand = self._rng.random
        for _ in range(RETRY_LIMIT + 1):
            elapsed += slot_contention * uniform(0.5, 1.5) + frame_airtime
            attempts += 1
            if rand() >= loss_p:
                cause = None
                break
        if self.profiler is not None:
            self.profiler.on_air(packet.size_bytes, attempts)
        src.radio_busy_until = now + elapsed
        completion = now + elapsed + PROCESSING_DELAY
        self._sim.schedule(
            completion - now, lambda: on_result(cause, completion)
        )
        return src.radio_busy_until

    def broadcast_airtime(self, size_bytes: int) -> float:
        """Occupancy of a single broadcast frame (no retries, no ACK)."""
        return airtime(size_bytes)

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
from dataclasses import dataclass
from typing import Callable

from repro.errors import NetworkError
from repro.net.medium import WirelessMedium
from repro.net.packet import Packet
from repro.sim.core import Simulator


#: Expected deferral per busy neighbouring radio, seconds.
SLOT_SECONDS = 0.0005
#: Per-hop forwarding latency, seconds.
PROCESSING_DELAY = 0.001
#: Cap on the contention-driven part of the per-attempt loss.
MAX_LOSS = 0.3


@dataclass(frozen=True)
class MacConfig:
    """Tunables for the contention model."""

    bitrate_bps: float = 2_000_000.0     # 802.11 basic rate
    base_loss: float = 0.01              # floor frame-loss probability
    contention_loss: float = 0.01        # extra loss per busy neighbour
    retry_limit: int = 3                 # link-layer retransmissions

    def airtime(self, size_bytes: int) -> float:
        """Seconds the radio is busy sending one frame."""
        return (size_bytes * 8.0) / self.bitrate_bps


class ContentionMac:
    """Schedules frame transmissions over the shared medium."""

    def __init__(
        self,
        sim: Simulator,
        medium: WirelessMedium,
        rng: random.Random,
        config: MacConfig = MacConfig(),
    ) -> None:
        self._sim = sim
        self._medium = medium
        self._rng = rng
        self.config = config
        # Frames come in a handful of sizes (payload, ACK, probes), so
        # the per-size airtime division is memoized.  Keyed per config
        # instance: swapping ``self.config`` resets the cache.
        self._airtime_cache: dict = {}
        self._airtime_config = config
        # Telemetry hook (repro.telemetry.profiler): when set, every
        # transmission reports its frame attempts as bytes on air.
        # Observation only — it must never touch the RNG or timing.
        self.profiler = None
        # QoS hook (repro.qos.mac.MacQosScheduler): when set, frames
        # pass through a per-node priority queue with deadline-drop
        # and bounded per-class depth before reaching the radio.
        self.qos = None

    def transmit(
        self,
        src_id: int,
        dst_id: int,
        packet: Packet,
        on_result: Callable[[bool, float], None],
    ) -> None:
        """Send one frame src -> dst; reports (success, completion_time).

        The frame waits for the sender's radio, defers for contention,
        and is retried up to ``retry_limit`` times on loss.  Whether the
        destination is *reachable* is the caller's concern (checked at
        the network layer at the moment of transmission); this layer
        models only timing and stochastic loss.

        With a QoS scheduler installed the frame is queued by traffic
        class instead of hitting the radio immediately; the scheduler
        calls back into :meth:`service_frame` when the frame wins
        service.
        """
        if self.qos is not None:
            self.qos.submit(src_id, dst_id, packet, on_result)
            return
        self.service_frame(src_id, dst_id, packet, on_result)

    def service_frame(
        self,
        src_id: int,
        dst_id: int,
        packet: Packet,
        on_result: Callable[[bool, float], None],
    ) -> float:
        """Put one frame on the air now; returns when the radio frees.

        This is the legacy ``transmit`` body: contention model, random
        backoff, bounded retries.  The return value (the sender's
        ``radio_busy_until``) lets the QoS scheduler serve its queue
        frame-by-frame.
        """
        cfg = self.config
        src = self._medium.node(src_id)
        now = self._sim.now
        start = max(now, src.radio_busy_until)
        contention = self._medium.contention_at(src_id, now)
        size = packet.size_bytes
        if cfg is not self._airtime_config:
            self._airtime_cache = {}
            self._airtime_config = cfg
        airtime = self._airtime_cache.get(size)
        if airtime is None:
            airtime = self._airtime_cache[size] = cfg.airtime(size)
        # Per-attempt loss: the floor plus a capped contention share.
        # It shares the frame's one contention_at with the backoff.
        extra = min(cfg.contention_loss * contention, MAX_LOSS)
        loss_p = min(cfg.base_loss + extra, 1.0)

        elapsed = start - now
        success = False
        attempts = 0
        # SLOT_SECONDS * contention is loop-invariant; multiplying the
        # uniform draw afterwards evaluates left-to-right exactly like
        # the original expression, so timings are bit-identical.
        slot_contention = SLOT_SECONDS * contention
        uniform = self._rng.uniform
        rand = self._rng.random
        for _ in range(cfg.retry_limit + 1):
            elapsed += slot_contention * uniform(0.5, 1.5) + airtime
            attempts += 1
            if rand() >= loss_p:
                success = True
                break
        if self.profiler is not None:
            self.profiler.on_air(packet.size_bytes, attempts)
        src.radio_busy_until = now + elapsed
        completion = now + elapsed + PROCESSING_DELAY
        self._sim.schedule(
            completion - now, lambda: on_result(success, completion)
        )
        return src.radio_busy_until

    def broadcast_airtime(self, size_bytes: int) -> float:
        """Occupancy of a single broadcast frame (no retries, no ACK)."""
        return self.config.airtime(size_bytes)

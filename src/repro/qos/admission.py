"""Source admission control: per-(source, class) token buckets.

Admission is the first QoS gate — it runs at packet *creation*, before
any routing or energy is spent.  Alarm traffic always passes (the
whole point of the subsystem is that alarms survive overload); control
traffic gets a generously scaled bucket; bulk traffic is policed at
the configured sustained rate and, while backpressure is active
anywhere, its buckets refill at :data:`THROTTLE_FACTOR` times that rate —
the source-level response to the hop-level congestion signal.

Refused emissions are counted but never transmitted: the workload
drops them as ``admission_rejected`` and the packet dies at its source
for free.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.net.packet import Packet
from repro.qos.backpressure import BackpressureState
from repro.qos.classes import ALARM_LANE, BULK_LANE, CONTROL_LANE, lane_of
from repro.qos.stats import QosStats

__all__ = ["TokenBucket", "AdmissionController"]

#: Sustained bulk admission rate per source (packets/second).
BULK_BUCKET_RATE = 6.0
#: Bulk bucket capacity (burst allowance, packets).
BULK_BUCKET_BURST = 10.0
#: Control-class bucket rate and burst as a multiple of the bulk
#: bucket (control is policed loosely; alarm is never policed).
CONTROL_BUCKET_SCALE = 4.0
#: While any node is congested, source bulk buckets refill at this
#: fraction of their rate.
THROTTLE_FACTOR = 0.25


class TokenBucket:
    """A standard token bucket with a scalable refill rate."""

    __slots__ = ("rate", "burst", "tokens", "last")

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.last = 0.0

    def try_take(self, now: float, scale: float = 1.0) -> bool:
        """Spend one token if available, refilling for elapsed time.

        ``scale`` multiplies the refill rate for this interval — the
        backpressure throttle.  Time never flows backwards in the sim,
        so ``now`` is monotone per bucket.
        """
        elapsed = now - self.last
        if elapsed > 0:
            self.tokens = min(self.burst, self.tokens + self.rate * scale * elapsed)
            self.last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class AdmissionController:
    """Token-bucket policing of traffic sources, per (source, class)."""

    def __init__(self, state: BackpressureState, stats: QosStats) -> None:
        self._state = state
        self._stats = stats
        # (source, lane) -> bucket; a lane is the class's priority index.
        self._buckets: Dict[Tuple[int, int], TokenBucket] = {}

    def _bucket(self, source: int, lane: int) -> TokenBucket:
        key = (source, lane)
        bucket = self._buckets.get(key)
        if bucket is None:
            rate = BULK_BUCKET_RATE
            burst = BULK_BUCKET_BURST
            if lane == CONTROL_LANE:
                rate *= CONTROL_BUCKET_SCALE
                burst *= CONTROL_BUCKET_SCALE
            bucket = TokenBucket(rate, burst)
            self._buckets[key] = bucket
        return bucket

    def admit(self, source: int, packet: Packet, now: float) -> Optional[str]:
        """Pass ``packet`` or return the drop reason refusing it."""
        lane = lane_of(packet)
        if lane == ALARM_LANE:
            self._stats.admitted += 1
            return None
        scale = 1.0
        if lane == BULK_LANE and self._state.any_congested():
            scale = THROTTLE_FACTOR
        if self._bucket(source, lane).try_take(now, scale):
            self._stats.admitted += 1
            return None
        self._stats.admission_rejected += 1
        return "admission_rejected"

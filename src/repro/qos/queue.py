"""Bounded per-class priority queue in front of a node's MAC.

One :class:`PriorityFrameQueue` per transmitting node: three bounded
FIFO lanes, one per :class:`~repro.qos.classes.TrafficClass`, served
in strict priority order.  Frames that pass their deadline while
queued are surfaced by :meth:`PriorityFrameQueue.pop_live` so the
scheduler can drop them (``deadline_expired``) without spending
airtime on them.

Lanes are held in a tuple in priority order and addressed by index
(:func:`~repro.qos.classes.lane_of`); ``tests/qos/oracle.py`` keeps the
dict-of-deques formulation this replaced and a hypothesis suite holds
the two equal.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.net.mac import ResultCallback
from repro.net.packet import Packet
from repro.qos.classes import PRIORITY_ORDER, TrafficClass

__all__ = ["QueuedFrame", "PriorityFrameQueue"]


class QueuedFrame:
    """One frame waiting for service (a deferred MAC transmission).

    It carries what the scheduler resolved when it accepted the hop:
    ``lane`` (the index of its class in ``PRIORITY_ORDER``) and the
    absolute ``expiry``.
    """

    __slots__ = ("src", "dst", "packet", "on_result", "lane", "expiry")

    def __init__(
        self,
        src: int,
        dst: int,
        packet: Packet,
        on_result: ResultCallback,
        lane: int,
        expiry: Optional[float],
    ) -> None:
        self.src = src
        self.dst = dst
        self.packet = packet
        self.on_result = on_result
        self.lane = lane
        self.expiry = expiry


class PriorityFrameQueue:
    """Strict-priority, per-class-bounded frame queue for one node."""

    def __init__(self, depths: Dict[TrafficClass, int]) -> None:
        self._lanes = tuple(deque() for _ in PRIORITY_ORDER)
        self._limits = tuple(depths[cls] for cls in PRIORITY_ORDER)
        #: Total frames waiting across all lanes (kept by
        #: :meth:`offer` and :meth:`pop_live`; read it, do not set it).
        self.depth = 0

    def full(self, lane: int) -> bool:
        """Whether lane ``lane`` (an index into ``PRIORITY_ORDER``) is at
        its bounded depth."""
        return len(self._lanes[lane]) >= self._limits[lane]

    def offer(self, frame: QueuedFrame) -> bool:
        """Enqueue ``frame``; False when its class lane is full."""
        lane = self._lanes[frame.lane]
        if len(lane) >= self._limits[frame.lane]:
            return False
        lane.append(frame)
        self.depth += 1
        return True

    def pop_live(
        self, now: float
    ) -> Tuple[Optional[QueuedFrame], List[QueuedFrame]]:
        """Pop the highest-priority unexpired frame.

        Returns ``(frame, expired)`` where ``expired`` lists every
        frame skipped over because its deadline passed while it sat in
        the queue (in the order they would have been served).  When
        only expired frames remain, ``frame`` is None and they are all
        drained.
        """
        expired: List[QueuedFrame] = []
        for lane in self._lanes:
            while lane:
                frame = lane.popleft()
                self.depth -= 1
                if frame.expiry is not None and now > frame.expiry:
                    expired.append(frame)
                    continue
                return frame, expired
        return None, expired

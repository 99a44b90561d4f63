"""Priority-aware MAC scheduling: the queue between router and radio.

:class:`MacQosScheduler` installs as :attr:`ContentionMac.qos
<repro.net.mac.ContentionMac>`.  Each transmitting node gets a
bounded, per-class :class:`~repro.qos.queue.PriorityFrameQueue`;
frames are served strictly by class priority, one at a time, each
service occupying the radio via the MAC's analytic contention model
(:meth:`~repro.net.mac.ContentionMac.service_frame`).

Two drop mechanisms keep the queue honest under overload:

* **deadline-drop** — frames whose expiry passed while queued are
  discarded without airtime (``deadline_expired``);
* **shedding** — bulk frames aimed at a congested next hop, or any
  frame arriving at a full class lane, are refused before the sender
  charges transmission energy (``backpressure_shed``).

Refusals happen in :meth:`refusal`, called by the network layer
*before* energy accounting; accepted frames are owned by the
scheduler until the MAC reports their completion.  A hop's lane and
expiry are resolved once, there: ``refusal`` leaves them for the
``submit`` of the same packet that follows it.  Refused and
expired frames fail through the normal ``on_result`` / ``on_failed``
paths with ``packet.meta["qos_terminal"]`` stamped, which tells the
router not to burn the remaining disjoint paths on a packet QoS has
already condemned.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from repro.net.mac import ContentionMac
from repro.net.packet import Packet
from repro.qos.backpressure import BackpressureState
from repro.qos.classes import (
    BULK_LANE,
    PRIORITY_ORDER,
    TrafficClass,
    expiry_of,
    lane_of,
)
from repro.qos.config import QosConfig
from repro.qos.queue import PriorityFrameQueue, QueuedFrame
from repro.qos.stats import QosStats
from repro.sim.core import Simulator

__all__ = ["MacQosScheduler"]

#: Bounded per-node queue depth for alarm and for control frames
#: (bulk's is ``QosConfig.bulk_queue_depth``).
ALARM_QUEUE_DEPTH = 16
CONTROL_QUEUE_DEPTH = 16


class MacQosScheduler:
    """Per-node strict-priority frame queues feeding the MAC."""

    def __init__(
        self,
        sim: Simulator,
        mac: ContentionMac,
        config: QosConfig,
        state: Optional[BackpressureState],
        stats: QosStats,
    ) -> None:
        self._sim = sim
        self._mac = mac
        self._config = config
        self._state = state
        self._stats = stats
        self._depths = {
            TrafficClass.ALARM: ALARM_QUEUE_DEPTH,
            TrafficClass.CONTROL: CONTROL_QUEUE_DEPTH,
            TrafficClass.BULK: config.bulk_queue_depth,
        }
        self._queues: Dict[int, PriorityFrameQueue] = {}
        self._serving: Set[int] = set()
        # QueuedFrame free list: frames never escape the scheduler
        # (the MAC gets packet + callback, not the frame), so finished
        # frames are recycled instead of churning an allocation per
        # queued transmission.
        self._free_frames: List[QueuedFrame] = []
        # (packet, lane, expiry) of the hop refusal() last accepted.
        self._accepted: tuple = (None, 0, None)

    def queue_depth(self, node_id: int) -> int:
        """Frames currently queued at a node (0 if it never queued)."""
        queue = self._queues.get(node_id)
        return 0 if queue is None else queue.depth

    def refusal(
        self, src_id: int, dst_id: int, packet: Packet, now: float
    ) -> Optional[str]:
        """Drop reason refusing this hop, or None to accept.

        Runs at the network layer before any energy is charged, so a
        refused frame costs its sender nothing.
        """
        lane = lane_of(packet)
        expiry = expiry_of(packet)
        if expiry is not None and now > expiry:
            self._stats.deadline_drops += 1
            return "deadline_expired"
        if (
            lane == BULK_LANE
            and self._state is not None
            and self._state.is_congested(dst_id)
        ):
            self._stats.backpressure_sheds += 1
            return "backpressure_shed"
        queue = self._queues.get(src_id)
        if queue is not None and queue.full(lane):
            self._stats.backpressure_sheds += 1
            return "backpressure_shed"
        self._accepted = (packet, lane, expiry)
        return None

    def submit(
        self,
        src_id: int,
        dst_id: int,
        packet: Packet,
        on_result: Callable[[bool, float], None],
    ) -> None:
        """Queue one accepted frame and serve the node if it is idle."""
        accepted, lane, expiry = self._accepted
        if accepted is not packet:
            # A direct caller: no refusal() resolved this packet.
            lane, expiry = lane_of(packet), expiry_of(packet)
        frame = self._acquire_frame(
            src_id, dst_id, packet, on_result, lane, expiry
        )
        queue = self._queues.get(src_id)
        if queue is None:
            queue = self._queues[src_id] = PriorityFrameQueue(self._depths)
        if not queue.offer(frame):
            # The network layer's refusal() check makes this unreachable
            # in-sim (nothing runs between the check and this call), but
            # direct callers still get the shedding contract.
            self._shed(frame)
            return
        self._stats.frames_queued += 1
        if self._state is not None:
            self._state.note_depth(src_id, queue.depth)
        if src_id not in self._serving:
            self._serve(src_id)

    def _serve(self, node_id: int) -> None:
        """Serve the node's next live frame; reschedules itself."""
        queue = self._queues.get(node_id)
        if queue is None or not queue.depth:
            # A wake-up that finds nothing queued changed no depth: the
            # 0 this node reported after its last service still stands.
            self._serving.discard(node_id)
            return
        # Mark the node busy before running expiry callbacks: those may
        # synchronously re-enter submit() for this same node.
        self._serving.add(node_id)
        state = self._state
        while True:
            frame, expired = queue.pop_live(self._sim.now)
            for stale in expired:
                self._expire(stale)
            if frame is not None:
                break
            if queue.depth == 0:
                self._serving.discard(node_id)
                if state is not None:
                    state.note_depth(node_id, 0)
                return
        self._stats.frames_served += 1
        radio_free = self._mac.service_frame(
            frame.src, frame.dst, frame.packet, frame.on_result
        )
        self._release_frame(frame)
        if state is not None:
            state.note_depth(node_id, queue.depth)
        self._sim.schedule(
            max(0.0, radio_free - self._sim.now),
            lambda: self._serve(node_id),
        )

    def _expire(self, frame: QueuedFrame) -> None:
        """Drop a frame whose deadline passed while it was queued."""
        self._stats.deadline_drops += 1
        frame.packet.meta["drop_reason"] = "deadline_expired"
        frame.packet.meta["qos_terminal"] = "deadline_expired"
        on_result = frame.on_result
        self._release_frame(frame)
        on_result(False, self._sim.now)

    def _shed(self, frame: QueuedFrame) -> None:
        self._stats.backpressure_sheds += 1
        frame.packet.meta["drop_reason"] = "backpressure_shed"
        frame.packet.meta["qos_terminal"] = "backpressure_shed"
        on_result = frame.on_result
        self._release_frame(frame)
        on_result(False, self._sim.now)

    # -- frame recycling ---------------------------------------------------

    def _acquire_frame(
        self,
        src: int,
        dst: int,
        packet: Packet,
        on_result: Callable[[bool, float], None],
        lane: int,
        expiry: Optional[float],
    ) -> QueuedFrame:
        free = self._free_frames
        if free:
            frame = free.pop()
            frame.src = src
            frame.dst = dst
            frame.packet = packet
            frame.on_result = on_result
            frame.lane = lane
            frame.expiry = expiry
            return frame
        return QueuedFrame(
            src, dst, packet, on_result, PRIORITY_ORDER[lane], expiry
        )

    def _release_frame(self, frame: QueuedFrame) -> None:
        frame.packet = None  # drop references; the frame is inert
        frame.on_result = None
        if len(self._free_frames) < 1024:
            self._free_frames.append(frame)

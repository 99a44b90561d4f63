"""The formulations the QoS queue and its scheduler are held to.

``ReferenceFrameQueue`` is the queue as it stood before it kept its
lanes in a priority-ordered tuple with an integer depth: one deque per
``TrafficClass`` in a dict, ``depth`` summed over the lanes at every
read.  ``tests/qos/test_queue_differential.py`` drives both with the
same scripts.  ``ReferenceQosScheduler`` is below.
"""

from collections import deque

from repro.qos.classes import (
    BULK_LANE,
    PRIORITY_ORDER,
    TrafficClass,
    expiry_of,
    lane_of,
)
from repro.qos.mac import (
    ALARM_QUEUE_DEPTH,
    BULK_QUEUE_DEPTH,
    CONTROL_QUEUE_DEPTH,
)
from repro.qos.queue import PriorityFrameQueue, QueuedFrame


class ReferenceFrameQueue:
    """Strict-priority, per-class-bounded frame queue, one dict lookup
    by class per operation."""

    def __init__(self, depths):
        self._lanes = {cls: deque() for cls in PRIORITY_ORDER}
        self._depths = dict(depths)

    @property
    def depth(self):
        return sum(len(lane) for lane in self._lanes.values())

    def full(self, lane):
        traffic_class = PRIORITY_ORDER[lane]
        return len(self._lanes[traffic_class]) >= self._depths[traffic_class]

    def offer(self, frame):
        traffic_class = PRIORITY_ORDER[frame.lane]
        lane = self._lanes[traffic_class]
        if len(lane) >= self._depths[traffic_class]:
            return False
        lane.append(frame)
        return True

    def pop_live(self, now):
        expired = []
        for cls in PRIORITY_ORDER:
            lane = self._lanes[cls]
            while lane:
                frame = lane.popleft()
                if frame.expiry is not None and now > frame.expiry:
                    expired.append(frame)
                    continue
                return frame, expired
        return None, expired


class ReferenceQosScheduler:
    """``MacQosScheduler`` as it stood when every service scheduled the
    node's next wake-up, queue empty or not.

    Every accepted frame goes through the queue; a wake-up that finds
    it empty ends the node's service.  ``MacQosScheduler`` keeps such
    a wake-up unfiled and serves a frame at an idle node directly;
    ``tests/qos/test_scheduler_differential.py`` drives both with the
    same scripts.
    """

    def __init__(self, sim, mac, state, stats):
        self._sim = sim
        self._mac = mac
        self._state = state
        self._stats = stats
        self._depths = {
            TrafficClass.ALARM: ALARM_QUEUE_DEPTH,
            TrafficClass.CONTROL: CONTROL_QUEUE_DEPTH,
            TrafficClass.BULK: BULK_QUEUE_DEPTH,
        }
        self._queues = {}
        self._serving = set()

    def refusal(self, src_id, dst_id, packet, now):
        lane = lane_of(packet)
        expiry = expiry_of(packet)
        if expiry is not None and now > expiry:
            self._stats.deadline_drops += 1
            return "deadline_expired"
        if lane == BULK_LANE and self._state.is_congested(dst_id):
            self._stats.backpressure_sheds += 1
            return "backpressure_shed"
        queue = self._queues.get(src_id)
        if queue is not None and queue.full(lane):
            self._stats.backpressure_sheds += 1
            return "backpressure_shed"
        return None

    def submit(self, src_id, dst_id, packet, on_result):
        frame = QueuedFrame(
            src_id, dst_id, packet, on_result,
            lane_of(packet), expiry_of(packet),
        )
        queue = self._queues.get(src_id)
        if queue is None:
            queue = self._queues[src_id] = PriorityFrameQueue(self._depths)
        if not queue.offer(frame):
            self._stats.backpressure_sheds += 1
            on_result("backpressure_shed", self._sim.now)
            return
        self._stats.frames_queued += 1
        self._state.note_depth(src_id, queue.depth)
        if src_id not in self._serving:
            self._serve(src_id)

    def _serve(self, node_id):
        queue = self._queues.get(node_id)
        if queue is None or not queue.depth:
            self._serving.discard(node_id)
            return
        self._serving.add(node_id)
        while True:
            frame, expired = queue.pop_live(self._sim.now)
            for stale in expired:
                self._stats.deadline_drops += 1
                stale.on_result("deadline_expired", self._sim.now)
            if frame is not None:
                break
            if queue.depth == 0:
                self._serving.discard(node_id)
                self._state.note_depth(node_id, 0)
                return
        self._stats.frames_served += 1
        radio_free = self._mac.service_frame(
            frame.src, frame.dst, frame.packet, frame.on_result
        )
        self._state.note_depth(node_id, queue.depth)
        self._sim.schedule(
            max(0.0, radio_free - self._sim.now),
            lambda: self._serve(node_id),
        )

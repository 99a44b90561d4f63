"""The dict-of-deques frame queue ``PriorityFrameQueue`` is held to.

This is the queue as it stood before it kept its lanes in a
priority-ordered tuple with an integer depth: one deque per
``TrafficClass`` in a dict, ``depth`` summed over the lanes at every
read.  ``tests/qos/test_queue_differential.py`` drives both with the
same scripts.
"""

from collections import deque

from repro.qos.classes import PRIORITY_ORDER


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
        lane = self._lanes[frame.traffic_class]
        if len(lane) >= self._depths[frame.traffic_class]:
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

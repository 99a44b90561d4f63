"""Unit tests for the bounded per-class priority frame queue."""

from repro.net.packet import Packet, PacketKind
from repro.qos import PRIORITY_ORDER, PriorityFrameQueue, QueuedFrame, TrafficClass

DEPTHS = {
    TrafficClass.ALARM: 4,
    TrafficClass.CONTROL: 4,
    TrafficClass.BULK: 2,
}


def _frame(cls, expiry=None, uid_hint=0):
    packet = Packet(
        kind=PacketKind.DATA,
        size_bytes=100,
        source=1,
        destination=2,
        created_at=0.0,
        traffic_class=cls.value,
    )
    return QueuedFrame(
        src=1, dst=2, packet=packet,
        on_result=lambda ok, now: None,
        lane=PRIORITY_ORDER.index(cls), expiry=expiry,
    )


class TestPriorityFrameQueue:
    def test_strict_priority_service_order(self):
        queue = PriorityFrameQueue(DEPTHS)
        bulk = _frame(TrafficClass.BULK)
        control = _frame(TrafficClass.CONTROL)
        alarm = _frame(TrafficClass.ALARM)
        for frame in (bulk, control, alarm):
            assert queue.offer(frame)
        served = [queue.pop_live(0.0)[0] for _ in range(3)]
        assert served == [alarm, control, bulk]

    def test_fifo_within_a_class(self):
        queue = PriorityFrameQueue(DEPTHS)
        first = _frame(TrafficClass.CONTROL)
        second = _frame(TrafficClass.CONTROL)
        queue.offer(first)
        queue.offer(second)
        assert queue.pop_live(0.0)[0] is first
        assert queue.pop_live(0.0)[0] is second

    def test_bounded_lane_refuses_overflow(self):
        queue = PriorityFrameQueue(DEPTHS)
        assert queue.offer(_frame(TrafficClass.BULK))
        assert queue.offer(_frame(TrafficClass.BULK))
        assert queue.full(PRIORITY_ORDER.index(TrafficClass.BULK))
        assert not queue.offer(_frame(TrafficClass.BULK))
        # Other lanes are unaffected by a full bulk lane.
        assert not queue.full(PRIORITY_ORDER.index(TrafficClass.ALARM))
        assert queue.offer(_frame(TrafficClass.ALARM))

    def test_expired_frames_are_drained_not_served(self):
        queue = PriorityFrameQueue(DEPTHS)
        stale = _frame(TrafficClass.ALARM, expiry=1.0)
        live = _frame(TrafficClass.CONTROL, expiry=10.0)
        queue.offer(stale)
        queue.offer(live)
        frame, expired = queue.pop_live(now=2.0)
        assert frame is live
        assert expired == [stale]
        assert queue.depth == 0

    def test_expiry_boundary_is_inclusive_of_the_deadline(self):
        """A frame is live *at* its expiry instant (now > expiry drops)."""
        queue = PriorityFrameQueue(DEPTHS)
        frame = _frame(TrafficClass.ALARM, expiry=5.0)
        queue.offer(frame)
        popped, expired = queue.pop_live(now=5.0)
        assert popped is frame
        assert not expired

    def test_all_expired_returns_none_and_drains(self):
        queue = PriorityFrameQueue(DEPTHS)
        stale = [
            _frame(TrafficClass.ALARM, expiry=0.5),
            _frame(TrafficClass.BULK, expiry=0.25),
        ]
        for frame in stale:
            queue.offer(frame)
        frame, expired = queue.pop_live(now=1.0)
        assert frame is None
        assert expired == stale
        assert queue.depth == 0

    def test_depth_counts_every_lane(self):
        queue = PriorityFrameQueue(DEPTHS)
        queue.offer(_frame(TrafficClass.ALARM))
        queue.offer(_frame(TrafficClass.BULK))
        assert queue.depth == 2

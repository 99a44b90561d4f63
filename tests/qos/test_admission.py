"""Unit tests for token buckets, admission control and backpressure."""

from repro.net.packet import Packet, PacketKind
from repro.qos import (
    AdmissionController,
    BackpressureState,
    QosStats,
    TokenBucket,
    TrafficClass,
)
from repro.qos.admission import (
    BULK_BUCKET_BURST,
    BULK_BUCKET_RATE,
    CONTROL_BUCKET_SCALE,
    THROTTLE_FACTOR,
)
from repro.qos.backpressure import HIGH_WATER, LOW_WATER


def _packet(cls):
    return Packet(
        kind=PacketKind.DATA,
        size_bytes=100,
        source=1,
        destination=None,
        created_at=0.0,
        traffic_class=cls.value,
    )


class TestTokenBucket:
    def test_burst_then_starve(self):
        bucket = TokenBucket(rate=1.0, burst=3.0)
        taken = [bucket.try_take(0.0) for _ in range(4)]
        assert taken == [True, True, True, False]

    def test_refills_with_time(self):
        bucket = TokenBucket(rate=2.0, burst=2.0)
        for _ in range(2):
            assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        assert bucket.try_take(0.5)   # 0.5s * 2/s = 1 token back

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        assert bucket.try_take(100.0)
        assert bucket.try_take(100.0)
        assert not bucket.try_take(100.0)

    def test_scale_throttles_the_refill(self):
        bucket = TokenBucket(rate=4.0, burst=1.0)
        assert bucket.try_take(0.0)
        # Unscaled, 0.25s would refill a full token; at 0.25x it
        # refills only a quarter of one.
        assert not bucket.try_take(0.25, scale=0.25)
        assert bucket.try_take(1.0, scale=0.25)


class TestBackpressureState:
    def test_hysteresis_marks_and_clears(self):
        state = BackpressureState(QosStats())
        state.note_depth(7, HIGH_WATER - 1)
        assert not state.is_congested(7)
        state.note_depth(7, HIGH_WATER)
        assert state.is_congested(7)
        assert state.any_congested()
        # Between the marks: stays congested (hysteresis).
        state.note_depth(7, LOW_WATER + 1)
        assert state.is_congested(7)
        state.note_depth(7, LOW_WATER)
        assert not state.is_congested(7)
        assert not state.any_congested()

    def test_onsets_and_clears_are_counted_once(self):
        stats = QosStats()
        state = BackpressureState(stats)
        state.note_depth(1, HIGH_WATER)
        state.note_depth(1, HIGH_WATER + 1)   # no second onset
        state.note_depth(1, 0)
        assert stats.congestion_onsets == 1
        assert stats.congestion_clears == 1
        assert not state.any_congested()


class TestAdmissionController:
    def _controller(self, state=None):
        stats = QosStats()
        if state is None:
            state = BackpressureState(stats)
        return AdmissionController(state, stats), stats

    def _burst(self, controller, cls, source=1, now=0.0):
        """How many ``cls`` packets one source gets admitted at once."""
        admitted = 0
        while controller.admit(source, _packet(cls), now) is None:
            admitted += 1
        return admitted

    def test_alarm_is_never_policed(self):
        controller, stats = self._controller()
        for _ in range(50):
            assert controller.admit(1, _packet(TrafficClass.ALARM), 0.0) is None
        assert stats.admitted == 50
        assert stats.admission_rejected == 0

    def test_bulk_is_policed_at_the_bucket(self):
        controller, stats = self._controller()
        assert self._burst(controller, TrafficClass.BULK) == BULK_BUCKET_BURST
        assert stats.admission_rejected == 1
        assert (
            controller.admit(1, _packet(TrafficClass.BULK), 0.0)
            == "admission_rejected"
        )

    def test_buckets_are_per_source(self):
        controller, _ = self._controller()
        self._burst(controller, TrafficClass.BULK, source=1)
        # Source 1 exhausted; source 2's bucket is untouched.
        assert controller.admit(1, _packet(TrafficClass.BULK), 0.0) is not None
        assert controller.admit(2, _packet(TrafficClass.BULK), 0.0) is None

    def test_control_bucket_is_scaled_up(self):
        controller, _ = self._controller()
        assert (
            self._burst(controller, TrafficClass.CONTROL)
            == BULK_BUCKET_BURST * CONTROL_BUCKET_SCALE
        )

    def test_congestion_throttles_bulk_refill(self):
        stats = QosStats()
        state = BackpressureState(stats)
        controller, _ = self._controller(state=state)
        self._burst(controller, TrafficClass.BULK)
        # Congestion anywhere throttles the sources.
        state.note_depth(9, HIGH_WATER)
        # One token's refill time at the full rate is not one at the
        # throttled rate.
        refill = 1.0 / BULK_BUCKET_RATE
        assert THROTTLE_FACTOR < 1.0
        assert (
            controller.admit(1, _packet(TrafficClass.BULK), refill) is not None
        )
        state.note_depth(9, 0)
        assert (
            controller.admit(1, _packet(TrafficClass.BULK), 2 * refill)
            is None
        )

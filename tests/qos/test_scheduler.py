"""Unit tests for the priority MAC scheduler (queue -> radio)."""

from repro.net.packet import Packet, PacketKind
from repro.qos import (
    BackpressureState,
    MacQosScheduler,
    QosStats,
    TrafficClass,
)
from repro.qos.backpressure import HIGH_WATER
from repro.qos.mac import BULK_QUEUE_DEPTH
from repro.sim.core import Simulator


class RecordingMac:
    """Stand-in MAC: serves the n-th frame in ``airtimes[n % len]``,
    so, like the real MAC's draws, timings follow the service order."""

    def __init__(self, sim, airtimes=(0.1,)):
        self._sim = sim
        self._airtimes = airtimes
        self.served = []

    def service_frame(self, src_id, dst_id, packet, on_result):
        airtime = self._airtimes[len(self.served) % len(self._airtimes)]
        self.served.append(packet)
        done = self._sim.now + airtime
        self._sim.schedule(airtime, lambda: on_result(None, done))
        return done


def _scheduler(sim, state=None):
    stats = QosStats()
    if state is None:
        state = BackpressureState(stats)
    mac = RecordingMac(sim)
    return MacQosScheduler(sim, mac, state, stats), mac, stats


def _packet(cls, deadline=None, created_at=0.0):
    return Packet(
        kind=PacketKind.DATA,
        size_bytes=100,
        source=1,
        destination=2,
        created_at=created_at,
        deadline=deadline,
        traffic_class=cls.value,
    )


def _sink(results):
    return lambda cause, now: results.append((cause, now))


class TestServiceOrder:
    def test_one_frame_is_served_immediately(self):
        sim = Simulator()
        scheduler, mac, stats = _scheduler(sim)
        results = []
        scheduler.submit(1, 2, _packet(TrafficClass.BULK), _sink(results))
        sim.run_until(1.0)
        assert len(mac.served) == 1
        assert results == [(None, 0.1)]
        assert stats.frames_served == 1

    def test_backlog_is_drained_in_priority_order(self):
        sim = Simulator()
        scheduler, mac, _ = _scheduler(sim)
        order = []

        def emit():
            # First submit occupies the radio; the rest queue behind it
            # and must come out alarm -> control -> bulk.
            scheduler.submit(
                1, 2, _packet(TrafficClass.BULK), lambda ok, now: None
            )
            for cls in (
                TrafficClass.BULK,
                TrafficClass.CONTROL,
                TrafficClass.ALARM,
            ):
                packet = _packet(cls)
                scheduler.submit(
                    1, 2, packet,
                    lambda ok, now, c=cls: order.append(c),
                )

        sim.schedule(0.0, emit)
        sim.run_until(2.0)
        assert order == [
            TrafficClass.ALARM, TrafficClass.CONTROL, TrafficClass.BULK
        ]
        assert len(mac.served) == 4

    def test_a_frame_at_an_idle_node_costs_one_event(self):
        # Its completion; the node's next wake-up stays unfiled.
        sim = Simulator()
        scheduler, mac, stats = _scheduler(sim)
        scheduler.submit(1, 2, _packet(TrafficClass.BULK), lambda *a: None)
        dispatched = 0
        while sim.step():
            dispatched += 1
        assert dispatched == 1
        assert (stats.frames_queued, stats.frames_served) == (1, 1)

    def test_kept_wake_ups_keep_the_order_of_their_services(self):
        # Nodes 1 and 2 serve at t=0 and free their radios at the same
        # W = 0.1.  Frames reaching them at t=0.05, node 2 first, wait
        # for their wake-ups, which fire in the order of the services.
        sim = Simulator()
        scheduler, mac, _ = _scheduler(sim)
        first = [_packet(TrafficClass.BULK) for _ in range(2)]
        second = [_packet(TrafficClass.BULK) for _ in range(2)]

        def emit(packets, nodes):
            for packet, node in zip(packets, nodes):
                scheduler.submit(node, 9, packet, lambda *a: None)

        sim.schedule(0.0, lambda: emit(first, (1, 2)))
        sim.schedule(0.05, lambda: emit(second[::-1], (2, 1)))
        sim.run_until(0.075)
        assert mac.served == first
        sim.run_until(1.0)
        assert mac.served == first + second

    def test_nodes_are_served_independently(self):
        sim = Simulator()
        scheduler, mac, _ = _scheduler(sim)
        scheduler.submit(1, 2, _packet(TrafficClass.BULK), lambda *a: None)
        scheduler.submit(3, 4, _packet(TrafficClass.BULK), lambda *a: None)
        # Both heads serve at t=0: per-node queues, one radio each.
        assert len(mac.served) == 2


class TestDeadlineDrop:
    def test_frame_expiring_in_queue_is_dropped_without_airtime(self):
        sim = Simulator()
        scheduler, mac, stats = _scheduler(sim)
        results = []

        def emit():
            scheduler.submit(
                1, 2, _packet(TrafficClass.BULK), lambda *a: None
            )
            # Expires at t=0.05, before the radio frees at t=0.1.
            scheduler.submit(
                1, 2, _packet(TrafficClass.ALARM, deadline=0.05),
                _sink(results),
            )

        sim.schedule(0.0, emit)
        sim.run_until(2.0)
        assert len(mac.served) == 1          # only the occupying frame
        assert results and results[0][0] == "deadline_expired"
        assert stats.deadline_drops == 1

    def test_expired_frame_reports_its_verdict_not_a_stamp(self):
        sim = Simulator()
        scheduler, _, _ = _scheduler(sim)
        doomed = _packet(TrafficClass.ALARM, deadline=0.05)
        results = []
        scheduler.submit(1, 2, _packet(TrafficClass.BULK), lambda *a: None)
        scheduler.submit(1, 2, doomed, _sink(results))
        sim.run_until(2.0)
        assert [cause for cause, _ in results] == ["deadline_expired"]
        assert doomed.meta == {}


class TestRefusal:
    def test_expired_packet_is_refused_upfront(self):
        sim = Simulator()
        scheduler, _, stats = _scheduler(sim)
        stale = _packet(TrafficClass.ALARM, deadline=0.1, created_at=0.0)
        assert scheduler.refusal(1, 2, stale, now=0.5) == "deadline_expired"
        assert stats.deadline_drops == 1

    def test_bulk_into_congested_hop_is_shed(self):
        sim = Simulator()
        state = BackpressureState(QosStats())
        scheduler, _, stats = _scheduler(sim, state=state)
        state.note_depth(2, HIGH_WATER)
        bulk = _packet(TrafficClass.BULK)
        alarm = _packet(TrafficClass.ALARM)
        assert scheduler.refusal(1, 2, bulk, 0.0) == "backpressure_shed"
        # Alarm and control push through congestion.
        assert scheduler.refusal(1, 2, alarm, 0.0) is None
        assert stats.backpressure_sheds == 1

    def test_full_lane_is_shed(self):
        sim = Simulator()
        scheduler, _, _ = _scheduler(sim)
        # Head occupies the radio; the next ones fill the bulk lane.
        for _ in range(1 + BULK_QUEUE_DEPTH):
            scheduler.submit(1, 2, _packet(TrafficClass.BULK), lambda *a: None)
        assert (
            scheduler.refusal(1, 2, _packet(TrafficClass.BULK), 0.0)
            == "backpressure_shed"
        )
        assert scheduler.refusal(1, 2, _packet(TrafficClass.ALARM), 0.0) is None
        # A caller that skips refusal() still gets the verdict.
        verdicts = []
        scheduler.submit(
            1, 2, _packet(TrafficClass.BULK),
            lambda verdict, at: verdicts.append(verdict),
        )
        assert verdicts == ["backpressure_shed"]

    def test_accepted_frame_is_not_refused(self):
        sim = Simulator()
        scheduler, _, _ = _scheduler(sim)
        assert scheduler.refusal(1, 2, _packet(TrafficClass.BULK), 0.0) is None


class TestBackpressureSignal:
    def test_queue_depth_drives_the_congestion_mark(self):
        sim = Simulator()
        state = BackpressureState(QosStats())
        scheduler, _, _ = _scheduler(sim, state=state)

        def emit():
            for _ in range(1 + HIGH_WATER):
                scheduler.submit(
                    1, 2, _packet(TrafficClass.BULK), lambda *a: None
                )

        sim.schedule(0.0, emit)
        sim.run_until(0.15)   # one served, HIGH_WATER queued -> mark raised
        assert state.is_congested(1)
        sim.run_until(5.0)    # drained -> mark cleared
        assert not state.is_congested(1)
        assert scheduler._queues[1].depth == 0

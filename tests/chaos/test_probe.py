"""Tests for the resilience probe's windowing and recovery analysis."""

import pytest

from repro.chaos import FaultEvent, ResilienceProbe
from repro.net.packet import Packet, PacketKind


def pkt(created_at):
    return Packet(PacketKind.DATA, 100, 0, 1, created_at)


def feed(probe, created_at, generated, delivered):
    """``generated`` packets in one window, ``delivered`` of them made it."""
    for i in range(generated):
        p = pkt(created_at)
        probe.on_generated(p)
        if i < delivered:
            probe.on_delivered(p)


def inject(time, model="crash-rotation"):
    return FaultEvent(time=time, model=model, kind="inject", nodes=(1,))


class TestWindowing:
    def test_bucketing_by_creation_time(self):
        probe = ResilienceProbe()
        feed(probe, 0.5, generated=4, delivered=4)
        feed(probe, 1.5, generated=4, delivered=2)
        samples = probe.samples()
        assert [s.start for s in samples] == [0.0, 1.0]
        assert samples[0].ratio == 1.0
        assert samples[1].ratio == 0.5


class TestRecoveryReport:
    def test_dip_and_recovery(self):
        # Delivered of 10 per window from t=3, when the fault hits, and
        # the windows until recovery.
        cases = (
            # The fault's own window shows the damage.
            (((3.5, 2), (4.5, 6), (5.5, 10)), 2),
            # The damage lands a window later: the fault's own window is
            # still in band and is not the recovery.
            (((3.5, 10), (4.5, 2), (5.5, 6), (6.5, 10)), 3),
        )
        for after, windows in cases:
            probe = ResilienceProbe()
            for t in (0.5, 1.5, 2.5):
                feed(probe, t, 10, 10)     # healthy baseline
            for t, delivered in after:
                feed(probe, t, 10, delivered)
            summary = probe.recovery_report([inject(3.0)])
            assert summary.fault_count == 1
            record = summary.records[0]
            assert record.baseline == 1.0
            assert record.trough == pytest.approx(0.2)
            assert record.recovery_windows == windows
            assert record.recovery_time_s == pytest.approx(float(windows))
            assert record.recovered

    def test_no_dip_recovers_immediately(self):
        probe = ResilienceProbe()
        for t in (0.5, 1.5, 2.5, 3.5):
            feed(probe, t, 10, 10)
        summary = probe.recovery_report([inject(3.0)])
        record = summary.records[0]
        assert record.recovery_windows == 0
        assert record.trough == 1.0

    def test_never_recovers(self):
        probe = ResilienceProbe()
        feed(probe, 0.5, 10, 10)
        feed(probe, 1.5, 10, 0)
        feed(probe, 2.5, 10, 0)
        summary = probe.recovery_report([inject(1.0)])
        record = summary.records[0]
        assert not record.recovered
        assert record.recovery_time_s is None
        assert record.trough == 0.0
        assert summary.recovered_fraction == 0.0
        assert summary.mean_recovery_s == 0.0

    def test_no_traffic_after_fault(self):
        probe = ResilienceProbe()
        feed(probe, 0.5, 10, 9)
        summary = probe.recovery_report([inject(5.0)])
        record = summary.records[0]
        assert record.recovery_windows == 0
        assert record.trough == record.baseline

    def test_baseline_from_preceding_windows_only(self):
        probe = ResilienceProbe()
        feed(probe, 0.5, 10, 0)        # ancient outage, outside baseline
        for t in (2.5, 3.5, 4.5):
            feed(probe, t, 10, 8)
        feed(probe, 5.5, 10, 8)
        summary = probe.recovery_report([inject(5.0)])  # 3 windows back
        assert summary.records[0].baseline == pytest.approx(0.8)
        assert summary.records[0].recovery_windows == 0

    def test_recover_events_ignored(self):
        probe = ResilienceProbe()
        feed(probe, 0.5, 10, 10)
        recover = FaultEvent(time=0.2, model="m", kind="recover", nodes=(1,))
        summary = probe.recovery_report([recover])
        assert summary.fault_count == 0
        assert summary.recovered_fraction == 1.0

    def test_multiple_faults_aggregate(self):
        # Delivered of 10 in the window between the faults, and what
        # each fault then reads.
        cases = (
            # Fault 1 recovers in the window before fault 2 lands.
            (10, (0.5, 0.2), [1.0, 1.0]),
            # Fault 1 is still out of band when fault 2 lands: it did
            # not recover within its horizon, and fault 2's dip and
            # recovery are not its own.
            (5, (0.5, 0.2), [None, 1.0]),
        )
        for between, troughs, recovery_s in cases:
            probe = ResilienceProbe()
            for t in (0.5, 1.5):
                feed(probe, t, 10, 10)
            feed(probe, 2.5, 10, 5)        # fault 1 at t=2
            feed(probe, 3.5, 10, between)
            feed(probe, 4.5, 10, 2)        # fault 2 at t=4
            feed(probe, 5.5, 10, 10)
            summary = probe.recovery_report([inject(2.0), inject(4.0)])
            assert summary.fault_count == 2
            assert [r.trough for r in summary.records] == [
                pytest.approx(t) for t in troughs
            ]
            assert [r.recovery_time_s for r in summary.records] == recovery_s
            recovered = [t for t in recovery_s if t is not None]
            assert summary.recovered_fraction == len(recovered) / 2
            assert summary.mean_trough == pytest.approx(sum(troughs) / 2.0)
            assert summary.mean_recovery_s == pytest.approx(1.0)

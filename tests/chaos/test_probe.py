"""Tests for the resilience probe's windowing and recovery analysis,
read off a packet ledger's per-window fold."""

import pytest

from repro.chaos import FaultEvent, ResilienceProbe
from repro.chaos.probe import PROBE_WINDOW
from repro.experiments.metrics import DELIVERED, DROPPED, GENERATED, PacketLedger
from repro.net.packet import Packet, PacketKind


def pkt(created_at):
    return Packet(PacketKind.DATA, 100, 0, 1, created_at)


def feed(ledger, created_at, generated, delivered, latency=0.1):
    """``generated`` packets in one window, ``delivered`` of them made it
    ``latency`` seconds later and the rest were dropped."""
    for i in range(generated):
        p = pkt(created_at)
        ledger.append(GENERATED, p, created_at)
        code = DELIVERED if i < delivered else DROPPED
        ledger.append(code, p, created_at + latency)


def probe_of(ledger):
    packets = ledger.fold(0.0, PROBE_WINDOW)
    return ResilienceProbe(packets.window_generated, packets.window_delivered)


def inject(time, model="crash-rotation"):
    return FaultEvent(time=time, model=model, kind="inject", nodes=(1,))


class TestWindowing:
    def test_bucketing_by_creation_time(self):
        ledger = PacketLedger()
        feed(ledger, 0.5, generated=4, delivered=4)
        # Delivered in the next window, counted in the one it was
        # created in.
        feed(ledger, 1.5, generated=4, delivered=2, latency=0.8)
        packets = ledger.fold(0.0, PROBE_WINDOW)
        assert packets.window_generated == {0: 4, 1: 4}
        assert packets.window_delivered == {0: 4, 1: 2}

    def test_windows_count_warm_up(self):
        """The baseline may sit inside warm-up: the windows count every
        row while the measured fold skips them."""
        ledger = PacketLedger()
        feed(ledger, 0.5, generated=4, delivered=3)
        packets = ledger.fold(10.0, PROBE_WINDOW)
        assert packets.generated == 0
        assert packets.window_generated == {0: 4}
        assert packets.window_delivered == {0: 3}

    def test_no_window_width_no_windows(self):
        ledger = PacketLedger()
        feed(ledger, 0.5, generated=4, delivered=3)
        packets = ledger.fold(0.0)
        assert packets.generated == 4
        assert packets.window_generated == packets.window_delivered == {}


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
            ledger = PacketLedger()
            for t in (0.5, 1.5, 2.5):
                feed(ledger, t, 10, 10)     # healthy baseline
            for t, delivered in after:
                feed(ledger, t, 10, delivered)
            summary = probe_of(ledger).recovery_report([inject(3.0)])
            assert summary.fault_count == 1
            record = summary.records[0]
            assert record.baseline == 1.0
            assert record.trough == pytest.approx(0.2)
            assert record.recovery_windows == windows
            assert record.recovery_time_s == pytest.approx(float(windows))
            assert record.recovered

    def test_no_dip_recovers_immediately(self):
        ledger = PacketLedger()
        for t in (0.5, 1.5, 2.5, 3.5):
            feed(ledger, t, 10, 10)
        summary = probe_of(ledger).recovery_report([inject(3.0)])
        record = summary.records[0]
        assert record.recovery_windows == 0
        assert record.trough == 1.0

    def test_never_recovers(self):
        ledger = PacketLedger()
        feed(ledger, 0.5, 10, 10)
        feed(ledger, 1.5, 10, 0)
        feed(ledger, 2.5, 10, 0)
        summary = probe_of(ledger).recovery_report([inject(1.0)])
        record = summary.records[0]
        assert not record.recovered
        assert record.recovery_time_s is None
        assert record.trough == 0.0
        assert summary.recovered_fraction == 0.0
        assert summary.mean_recovery_s == 0.0

    def test_no_traffic_after_fault(self):
        ledger = PacketLedger()
        feed(ledger, 0.5, 10, 9)
        summary = probe_of(ledger).recovery_report([inject(5.0)])
        record = summary.records[0]
        assert record.recovery_windows == 0
        assert record.trough == record.baseline

    def test_baseline_from_preceding_windows_only(self):
        ledger = PacketLedger()
        feed(ledger, 0.5, 10, 0)        # ancient outage, outside baseline
        for t in (2.5, 3.5, 4.5):
            feed(ledger, t, 10, 8)
        feed(ledger, 5.5, 10, 8)
        # 3 windows back
        summary = probe_of(ledger).recovery_report([inject(5.0)])
        assert summary.records[0].baseline == pytest.approx(0.8)
        assert summary.records[0].recovery_windows == 0

    def test_recover_events_ignored(self):
        ledger = PacketLedger()
        feed(ledger, 0.5, 10, 10)
        recover = FaultEvent(time=0.2, model="m", kind="recover", nodes=(1,))
        summary = probe_of(ledger).recovery_report([recover])
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
            ledger = PacketLedger()
            for t in (0.5, 1.5):
                feed(ledger, t, 10, 10)
            feed(ledger, 2.5, 10, 5)        # fault 1 at t=2
            feed(ledger, 3.5, 10, between)
            feed(ledger, 4.5, 10, 2)        # fault 2 at t=4
            feed(ledger, 5.5, 10, 10)
            summary = probe_of(ledger).recovery_report(
                [inject(2.0), inject(4.0)]
            )
            assert summary.fault_count == 2
            assert [r.trough for r in summary.records] == [
                pytest.approx(t) for t in troughs
            ]
            assert [r.recovery_time_s for r in summary.records] == recovery_s
            recovered = [t for t in recovery_s if t is not None]
            assert summary.recovered_fraction == len(recovered) / 2
            assert summary.mean_trough == pytest.approx(sum(troughs) / 2.0)
            assert summary.mean_recovery_s == pytest.approx(1.0)

"""Tests for the event heap, through the simulator that owns it."""

import pytest

from repro.errors import SimulationError
from repro.sim.core import Simulator


class TestOrdering:
    def test_pops_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append(3))
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        while sim.step():
            pass
        assert fired == [1, 2, 3]

    def test_fifo_for_equal_times(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule_at(5.0, lambda i=i: fired.append(i))
        while sim.step():
            pass
        assert fired == list(range(10))

    def test_nan_time_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_at(float("nan"), lambda: None)


class TestCancellation:
    def test_cancelled_events_are_skipped(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("keep"))
        drop = sim.schedule(0.5, lambda: fired.append("drop"))
        sim.cancel(drop)
        while sim.step():
            pass
        assert fired == ["keep"]

    def test_len_tracks_live_events(self):
        """The handle is the heap entry, ``(time, seq, action)``, and
        one step runs exactly one live event."""
        sim = Simulator()
        fired = []
        a = sim.schedule(1.0, lambda: fired.append("a"))
        b = sim.schedule(2.0, lambda: fired.append("b"))
        assert (a[0], a[1]) == (1.0, 0) and (b[0], b[1]) == (2.0, 1)
        sim.cancel(a)
        assert sim.step() is True and fired == ["b"]
        assert sim.step() is False

    def test_peek_skips_cancelled(self):
        """A cancelled event at the top of the heap neither fires nor
        lets ``run_until`` reach past its horizon for a later one."""
        sim = Simulator()
        fired = []
        first = sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.cancel(first)
        sim.run_until(1.5)
        assert fired == [] and sim.now == 1.5
        sim.run_until(2.0)
        assert fired == [2]

    def test_empty_queue(self):
        sim = Simulator()
        assert sim.step() is False
        sim.run()
        assert sim.now == 0.0

"""Tests for the simulator loop."""

import pytest

from repro.errors import SimulationError
from repro.sim.core import Simulator


class TestClock:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        times = []
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.schedule(4.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.5, 4.0]

    def test_run_until_lands_on_horizon(self):
        sim = Simulator()
        sim.run_until(10.0)
        assert sim.now == 10.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)


class TestRunUntil:
    def test_events_beyond_horizon_stay_queued(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run_until(2.0)
        assert fired == [1]
        assert len(sim._queue) == 1
        sim.run_until(10.0)
        assert fired == [1, 5]

    def test_event_at_exact_horizon_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run_until(2.0)
        assert fired == [2]

    def test_past_horizon_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.run_until(4.0)


class TestEventChaining:
    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append(("first", sim.now))
            sim.schedule(1.0, lambda: fired.append(("second", sim.now)))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == [("first", 1.0), ("second", 2.0)]

    def test_stop_inside_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [(1, None)] or fired == [1]
        assert len(sim._queue) == 1

    def test_cancel_pending_event(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        sim.cancel(handle)
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.cancel(handle)
        sim.cancel(handle)
        assert len(sim._queue) == 0

    def test_max_events_limit(self):
        sim = Simulator()
        count = []

        def recur():
            count.append(1)
            sim.schedule(1.0, recur)

        sim.schedule(0.0, recur)
        sim.run(max_events=10)
        assert len(count) == 10

    def test_reentrancy_guard(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulationError:
                errors.append(True)

        sim.schedule(1.0, reenter)
        sim.run()
        assert errors == [True]

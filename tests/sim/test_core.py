"""Tests for the simulator loop."""

import pytest

from repro.errors import SimulationError
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.sim.core import Simulator
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.tracing import TracingConfig


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
        assert sim.now == 2.0
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

    def test_nan_horizon_rejected(self):
        """NaN compares false with every time: the loop would fire
        every queued event and leave the clock on the last one."""
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(5))
        sim.schedule(100.0, lambda: fired.append(100))
        with pytest.raises(SimulationError, match="nan"):
            sim.run_until(float("nan"))
        assert fired == [] and sim.now == 0.0

    def test_infinite_horizon_rejected(self):
        """An infinite horizon would land the clock on inf, after which
        every schedule is refused."""
        sim = Simulator()
        for bad in (float("inf"), float("-inf")):
            with pytest.raises(SimulationError, match="inf"):
                sim.run_until(bad)
        assert sim.now == 0.0
        sim.schedule(1.0, lambda: None)
        sim.run_until(2.0)
        assert sim.now == 2.0


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
        assert sim.step() is False

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


class TestReservedSeqs:
    def test_a_reserved_seq_orders_as_if_scheduled_at_the_reserve(self):
        sim = Simulator()
        fired = []
        seq = sim.reserve()
        sim.schedule(1.0, lambda: fired.append("later seq"))
        sim.schedule_reserved(1.0, seq, lambda: fired.append("reserved"))
        sim.run()
        assert fired == ["reserved", "later seq"]

    def test_an_unfiled_reservation_only_uses_up_its_seq(self):
        sim = Simulator()
        sim.reserve()
        assert sim.schedule(1.0, lambda: None)[1] == 1
        sim.run()
        assert sim.step() is False

    def test_past_time_and_unissued_seq_rejected(self):
        sim = Simulator()
        seq = sim.reserve()
        sim.run_until(2.0)
        with pytest.raises(SimulationError):
            sim.schedule_reserved(1.0, seq, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_reserved(3.0, seq + 1, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_reserved(float("inf"), seq, lambda: None)

    def test_dispatch_seq_is_the_dispatching_event_then_the_horizon(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(sim.dispatch_seq))
        sim.schedule(1.0, lambda: seen.append(sim.dispatch_seq))
        sim.reserve()
        assert sim.dispatch_seq == -1
        sim.run_until(1.0)
        assert seen == [0, 1]
        # Every seq issued so far, the unfiled reservation's too, is
        # behind the dispatch point once the clock lands.
        assert sim.dispatch_seq == 3


class TestOneStepPerEvent:
    def test_steps_equal_profiled_and_traced_dispatches(self, monkeypatch):
        """``Simulator.step`` runs once per dispatched event: the
        end-to-end harness counts ``sim.events`` as its calls, so the
        count must equal both the profiler's total and the trace's
        dispatch records."""
        steps = [0]
        step = Simulator.step

        def counted(sim):
            steps[0] += 1
            return step(sim)

        monkeypatch.setattr(Simulator, "step", counted)
        config = ScenarioConfig(
            seed=11,
            sensor_count=40,
            area_side=220.0,
            sim_time=4.0,
            warmup=1.0,
            rate_pps=5.0,
            telemetry=TelemetryConfig(
                tracing=TracingConfig(capture=(0, 1 << 62))
            ),
        )
        telemetry = run_scenario("REFER", config).telemetry
        traced = [
            event for event in telemetry.trace.captured()
            if event.kind == "dispatch"
        ]
        assert steps[0] > 100
        assert steps[0] == sum(telemetry.profiler.event_counts().values())
        assert steps[0] == len(traced)

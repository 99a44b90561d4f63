"""Tests for periodic processes."""

import random

import pytest

from repro.errors import SimulationError
from repro.sim.core import Simulator
from repro.sim.process import PeriodicProcess


class TestPeriodic:
    def test_fires_every_period(self):
        sim = Simulator()
        ticks = []
        proc = PeriodicProcess(sim, period=2.0, action=lambda: ticks.append(sim.now))
        proc.start()
        sim.run_until(7.0)
        assert ticks == [0.0, 2.0, 4.0, 6.0]

    def test_initial_delay(self):
        sim = Simulator()
        ticks = []
        proc = PeriodicProcess(sim, 1.0, lambda: ticks.append(sim.now))
        proc.start(initial_delay=5.0)
        sim.run_until(7.0)
        assert ticks == [5.0, 6.0, 7.0]

    def test_stop_halts_firing(self):
        sim = Simulator()
        ticks = []
        proc = PeriodicProcess(sim, 1.0, lambda: ticks.append(sim.now))
        proc.start()
        sim.run_until(2.0)
        proc.stop()
        sim.run_until(10.0)
        assert ticks == [0.0, 1.0, 2.0]

    def test_stop_from_inside_action(self):
        sim = Simulator()
        proc_holder = {}

        def action():
            if proc_holder["p"].fired >= 3:
                proc_holder["p"].stop()

        proc = PeriodicProcess(sim, 1.0, action)
        proc_holder["p"] = proc
        proc.start()
        sim.run_until(100.0)
        assert proc.fired == 3

    def test_restart_after_stop(self):
        sim = Simulator()
        proc = PeriodicProcess(sim, 1.0, lambda: None)
        proc.start()
        sim.run_until(1.0)
        proc.stop()
        proc.start()
        sim.run_until(3.0)
        assert proc.fired >= 3

    def test_start_is_idempotent(self):
        sim = Simulator()
        ticks = []
        proc = PeriodicProcess(sim, 1.0, lambda: ticks.append(sim.now))
        proc.start()
        proc.start()
        sim.run_until(0.0)
        assert ticks == [0.0]


class TestJitter:
    def test_jitter_requires_rng(self):
        with pytest.raises(SimulationError):
            PeriodicProcess(Simulator(), 1.0, lambda: None, jitter=0.1)

    def test_jitter_bounds(self):
        sim = Simulator()
        ticks = []
        proc = PeriodicProcess(
            sim, 1.0, lambda: ticks.append(sim.now),
            jitter=0.2, rng=random.Random(1),
        )
        proc.start()
        sim.run_until(20.0)
        gaps = [b - a for a, b in zip(ticks, ticks[1:])]
        assert all(0.8 <= g <= 1.4 for g in gaps)

    def test_invalid_period(self):
        with pytest.raises(SimulationError):
            PeriodicProcess(Simulator(), 0.0, lambda: None)

    def test_negative_jitter(self):
        with pytest.raises(SimulationError):
            PeriodicProcess(
                Simulator(), 1.0, lambda: None, jitter=-1.0,
                rng=random.Random(1),
            )

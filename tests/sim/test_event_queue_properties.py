"""Model-based property suite for the simulator's event heap.

:class:`~repro.sim.core.Simulator` keeps a heap of ``(time, seq,
action)`` tuples (:mod:`repro.sim.events`); everything above it relies
on one contract — events come out in ``(time, seq)`` order, FIFO among
equal timestamps, with cancelled events skipped, and every schedule
using up one ``seq`` whether or not it is later cancelled.  These
properties hammer randomized interleavings of
``schedule_at``/``step``/``cancel``/``run_until`` — including
same-timestamp bursts, huge and tiny time scales, cancelling handles
that already fired or were already cancelled, and rescheduling and
cancelling from inside running callbacks — and assert the simulator's
observable trace (the ``(time, seq)`` of every dispatch, as the trace
hook sees it, and the clock) is element-for-element that of
:class:`SortedListModel`, a list re-sorted on every schedule.

All properties run derandomized (fixed seed profile) so CI failures
reproduce locally.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.core import Simulator
from repro.telemetry.profiler import SimProfiler
from repro.telemetry.tracing import TraceStream, TracingConfig

PROFILE = settings(max_examples=120, deadline=None, derandomize=True)


class SortedListModel:
    """The simulator contract at its most literal: a sorted list.

    Cancelled events leave the list the moment they are cancelled, so
    nothing here is lazy and nothing depends on heap order.
    """

    def __init__(self):
        self.now = 0.0
        self._events = []
        self._counter = itertools.count()
        self._trace = None

    def set_trace(self, trace):
        self._trace = trace

    def schedule(self, delay, action):
        return self.schedule_at(self.now + delay, action)

    def schedule_at(self, time, action):
        event = (time, next(self._counter), action)
        self._events.append(event)
        self._events.sort(key=lambda e: (e[0], e[1]))
        return event

    def cancel(self, event):
        self._events = [e for e in self._events if e[1] != event[1]]

    def step(self):
        if not self._events:
            return False
        time, seq, action = self._events.pop(0)
        self.now = time
        self._trace.dispatch(time, seq, action)
        action()
        return True

    def run_until(self, end_time):
        while self._events and self._events[0][0] <= end_time:
            self.step()
        self.now = end_time

    def run(self):
        while self.step():
            pass


class Recorder:
    """A trace hook that keeps the ``(time, seq)`` of every dispatch."""

    def __init__(self):
        self.log = []

    def dispatch(self, time, seq, action):
        self.log.append(("dispatch", time, seq))


# ----------------------------------------------------------------------
# op-script strategy
# ----------------------------------------------------------------------

@st.composite
def op_scripts(draw):
    """A randomized workload: schedule/step/cancel/run_until ops.

    Scheduled times mix fresh draws with *reuses* of earlier
    timestamps (same-time bursts are where FIFO tie-breaking can go
    wrong) across several magnitudes (sub-millisecond to 1e12).
    Cancels pick a pending handle, a handle that already fired, or one
    already cancelled.
    """
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    length = draw(st.integers(min_value=20, max_value=250))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e6, 1e12]))
    rng = random.Random(seed)
    ops = []
    times = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.5:
            if times and rng.random() < 0.35:
                t = rng.choice(times)       # same-time burst
            else:
                t = rng.random() * scale
            times.append(t)
            ops.append(("schedule", t))
        elif roll < 0.7:
            ops.append(("step",))
        elif roll < 0.8:
            ops.append(("cancel", rng.random()))
        elif roll < 0.85:
            ops.append(("cancel_fired", rng.random()))
        elif roll < 0.9:
            ops.append(("cancel_again", rng.random()))
        else:
            ops.append(("run_until", rng.random() * scale))
    return ops


def _apply(sim, ops):
    """Run one op script; returns the simulator's observable trace.

    Handles are tracked by a tag in three pools: ``pending`` (not yet
    fired or cancelled), ``fired`` and ``cancelled``.
    """
    recorder = Recorder()
    sim.set_trace(recorder)
    trace = recorder.log
    pending, fired, cancelled = {}, {}, {}
    tags = itertools.count()
    for op in ops:
        if op[0] == "schedule":
            tag = next(tags)

            def action(tag=tag):
                fired[tag] = pending.pop(tag)

            pending[tag] = sim.schedule_at(max(op[1], sim.now), action)
        elif op[0] == "step":
            trace.append(("step", sim.step(), sim.now))
        elif op[0] == "run_until":
            sim.run_until(max(op[1], sim.now))
            trace.append(("now", sim.now))
        else:
            pool = {"cancel": pending, "cancel_fired": fired,
                    "cancel_again": cancelled}[op[0]]
            if pool:
                keys = sorted(pool)
                tag = keys[int(op[1] * len(keys)) % len(keys)]
                sim.cancel(pool[tag])
                if pool is pending:
                    cancelled[tag] = pending.pop(tag)
    sim.run()
    trace.append(("final", sim.now, sorted(pending)))
    return trace


@PROFILE
@given(op_scripts())
def test_trace_matches_sorted_list_model(ops):
    """Identical op scripts yield identical observable traces."""
    assert _apply(Simulator(), ops) == _apply(SortedListModel(), ops)


# ----------------------------------------------------------------------
# rescheduling and cancelling from inside callbacks
# ----------------------------------------------------------------------

def _dynamic_trace(sim, seed, spawn_cap=300):
    """Run a self-rescheduling workload; returns the (time, tag) log.

    Every callback may schedule more events (zero-delay bursts
    included) and cancel a pending one — all driven by one RNG, so two
    simulators diverge iff they dispatch events in different orders.
    """
    recorder = Recorder()
    sim.set_trace(recorder)
    rng = random.Random(seed)
    log = []
    pending = {}
    tags = itertools.count()
    spawned = [0]

    def schedule(delay):
        tag = next(tags)
        spawned[0] += 1
        pending[tag] = sim.schedule(delay, make_action(tag))

    def make_action(tag):
        def action():
            pending.pop(tag, None)
            log.append((sim.now, tag))
            if spawned[0] < spawn_cap:
                for _ in range(rng.randrange(3)):
                    delay = 0.0 if rng.random() < 0.25 else rng.uniform(0, 2.0)
                    schedule(delay)
            if pending and rng.random() < 0.3:
                keys = sorted(pending)
                victim = keys[rng.randrange(len(keys))]
                sim.cancel(pending.pop(victim))
        return action

    for _ in range(8):
        schedule(rng.uniform(0, 1.0))
    sim.run()
    return log, recorder.log, sim.now


@PROFILE
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_reschedule_from_callbacks_matches_model(seed):
    """Dispatch order and seqs are identical even when callbacks
    reschedule and cancel."""
    assert _dynamic_trace(Simulator(), seed) == _dynamic_trace(
        SortedListModel(), seed
    )


# ----------------------------------------------------------------------
# directed edges
# ----------------------------------------------------------------------

def test_same_time_burst_pops_fifo():
    sim = Simulator()
    recorder = Recorder()
    sim.set_trace(recorder)
    for _ in range(64):
        sim.schedule_at(1.5, lambda: None)
    sim.schedule_at(0.5, lambda: None)
    sim.run()
    assert recorder.log == [("dispatch", 0.5, 64)] + [
        ("dispatch", 1.5, seq) for seq in range(64)
    ]


def test_cancelled_events_are_skipped_and_uncounted():
    """Cancelling a fired handle, cancelling twice, and cancelling from
    inside another callback at the same instant each leave no dispatch,
    no trace record and no profiler count — and the seqs of later
    events are numbered as if nothing was cancelled."""
    sim = Simulator()
    trace = TraceStream(TracingConfig(capture=(0, 1 << 62)))
    profiler = SimProfiler()
    sim.set_trace(trace)
    sim.set_profiler(profiler)
    handles = {}

    def first():
        sim.cancel(handles["same_instant"])     # seq 1, also at t=1.0

    def victim():
        raise AssertionError("a cancelled event fired")

    def later():
        pass

    handles["first"] = sim.schedule(1.0, first)            # seq 0
    handles["same_instant"] = sim.schedule(1.0, victim)    # seq 1
    handles["twice"] = sim.schedule(2.0, victim)           # seq 2
    sim.run_until(1.0)
    sim.cancel(handles["first"])      # already fired
    sim.cancel(handles["twice"])
    sim.cancel(handles["twice"])
    sim.schedule(0.5, later)                               # seq 3
    sim.run_until(3.0)
    assert sim.step() is False
    local = "test_cancelled_events_are_skipped_and_uncounted.<locals>."
    assert [
        (e.time, e.label, e.detail)
        for e in trace.captured() if e.kind == "dispatch"
    ] == [(1.0, local + "first", "0"), (1.5, local + "later", "3")]
    # ``first`` and ``later`` collapse to this test's one label.
    assert list(profiler.event_counts().values()) == [2]


def test_non_finite_times_rejected():
    """NaN has no place in the order and an infinite time would
    saturate the clock: both are refused up front, and a refused
    schedule uses up no seq."""
    sim = Simulator()
    recorder = Recorder()
    sim.set_trace(recorder)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(SimulationError):
            sim.schedule_at(bad, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(bad, lambda: None)
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert recorder.log == [("dispatch", 1.0, 0)]

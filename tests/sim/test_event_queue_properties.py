"""Model-based property suite for the event queue.

:class:`~repro.sim.events.EventQueue` is a heap of ``(time, seq,
event)`` tuples; everything above it relies on one contract — events
come out in ``(time, seq)`` order, FIFO among equal timestamps, with
cancelled events skipped and uncounted.  These properties hammer
randomized interleavings of ``push``/``pop``/``cancel``/``peek_time``
— including same-timestamp bursts, huge and tiny time scales, and
rescheduling from inside running callbacks via the Simulator — and
assert the queue's observable trace is element-for-element that of
:class:`SortedListModel`, a list re-sorted on every push: same
``(time, seq)`` pop sequence, same peeks, same lengths.

All properties run derandomized (fixed seed profile) so CI failures
reproduce locally.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.core import Simulator
from repro.sim.events import Event, EventQueue

PROFILE = settings(max_examples=120, deadline=None, derandomize=True)


class SortedListModel:
    """The queue contract at its most literal: a sorted list.

    Cancelled events leave the list the moment they are cancelled, so
    nothing here is lazy and nothing depends on heap order.
    """

    def __init__(self):
        self._events = []
        self._counter = itertools.count()

    def __len__(self):
        return len(self._events)

    def push(self, time, action):
        event = Event(time, next(self._counter), action)
        self._events.append(event)
        self._events.sort(key=lambda e: (e.time, e.seq))
        return event

    def pop(self):
        return self._events.pop(0) if self._events else None

    def peek_time(self):
        return self._events[0].time if self._events else None

    def note_cancelled(self):
        self._events = [e for e in self._events if not e.cancelled]


# ----------------------------------------------------------------------
# op-script strategy
# ----------------------------------------------------------------------

@st.composite
def op_scripts(draw):
    """A randomized queue workload: a list of push/pop/cancel/peek ops.

    Pushed times mix fresh draws with *reuses* of earlier timestamps
    (same-time bursts are where FIFO tie-breaking can go wrong) across
    several magnitudes (sub-millisecond to 1e12).
    """
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    length = draw(st.integers(min_value=20, max_value=250))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e6, 1e12]))
    rng = random.Random(seed)
    ops = []
    times = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.55:
            if times and rng.random() < 0.35:
                t = rng.choice(times)       # same-time burst
            else:
                t = rng.random() * scale
            times.append(t)
            ops.append(("push", t))
        elif roll < 0.75:
            ops.append(("pop",))
        elif roll < 0.9:
            ops.append(("cancel", rng.random()))
        else:
            ops.append(("peek",))
    return ops


def _apply(queue, ops):
    """Run one op script; returns the queue's full observable trace.

    ``pending`` tracks handles that have not been popped or cancelled,
    keyed by seq, so cancels only ever target live events (cancelling a
    popped event is a caller bug).
    """
    trace = []
    pending = {}
    for op in ops:
        if op[0] == "push":
            event = queue.push(op[1], lambda: None)
            pending[event.seq] = event
            trace.append(("len", len(queue)))
        elif op[0] == "pop":
            event = queue.pop()
            if event is None:
                trace.append(("pop", None))
            else:
                pending.pop(event.seq, None)
                trace.append(("pop", event.time, event.seq))
        elif op[0] == "cancel":
            if pending:
                keys = sorted(pending)
                key = keys[int(op[1] * len(keys)) % len(keys)]
                event = pending.pop(key)
                event.cancel()
                queue.note_cancelled()
                trace.append(("len", len(queue)))
        else:
            trace.append(("peek", queue.peek_time()))
    while True:
        event = queue.pop()
        if event is None:
            break
        trace.append(("pop", event.time, event.seq))
    trace.append(("final", len(queue), queue.peek_time()))
    return trace


@PROFILE
@given(op_scripts())
def test_trace_matches_sorted_list_model(ops):
    """Identical op scripts yield identical observable traces."""
    assert _apply(EventQueue(), ops) == _apply(SortedListModel(), ops)


# ----------------------------------------------------------------------
# Simulator-level: rescheduling and cancelling from inside callbacks
# ----------------------------------------------------------------------

def _dynamic_trace(queue, seed, spawn_cap=300):
    """Run a self-rescheduling workload; returns the (time, tag) log.

    Every callback may schedule more events (zero-delay bursts
    included) and cancel a pending one — all driven by one RNG, so two
    queues diverge iff they dispatch events in different orders.
    """
    sim = Simulator()
    sim._queue = queue   # the model needs the same loop around it
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
    return log, sim.now


@PROFILE
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_reschedule_from_callbacks_matches_model(seed):
    """Dispatch order is identical even when callbacks reschedule."""
    assert _dynamic_trace(EventQueue(), seed) == _dynamic_trace(
        SortedListModel(), seed
    )


# ----------------------------------------------------------------------
# directed edges
# ----------------------------------------------------------------------

def test_same_time_burst_pops_fifo():
    queue = EventQueue()
    events = [queue.push(1.5, lambda: None) for _ in range(64)]
    queue.push(0.5, lambda: None)
    assert queue.pop().time == 0.5
    for expected in events:
        popped = queue.pop()
        assert (popped.time, popped.seq) == (expected.time, expected.seq)
    assert queue.pop() is None


def test_cancelled_events_are_skipped_and_uncounted():
    queue = EventQueue()
    keep = queue.push(2.0, lambda: None)
    drop = queue.push(1.0, lambda: None)
    drop.cancel()
    queue.note_cancelled()
    assert len(queue) == 1
    assert queue.peek_time() == 2.0
    popped = queue.pop()
    assert popped is keep
    assert queue.pop() is None


def test_non_finite_times_rejected():
    """NaN has no place in the order and an infinite time would
    saturate the clock: both are refused up front."""
    queue = EventQueue()
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(SimulationError):
            queue.push(bad, lambda: None)
    assert len(queue) == 0 and queue.pop() is None

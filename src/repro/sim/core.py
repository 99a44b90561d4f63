"""The simulator: a clock plus an event loop.

Usage::

    sim = Simulator()
    sim.schedule(1.5, lambda: print("fires at t=1.5"))
    sim.run_until(10.0)

One event costs one Python call, :meth:`Simulator.step`, plus its
action; one schedule costs one call and a clock read none.  The heap
this loop works on, and its invariants (among them the reserve / file
/ dispatch-point rule), are described in :mod:`repro.sim.events`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Set

from repro.errors import SimulationError
from repro.sim.events import Action, Handle


class Simulator:
    """A discrete-event simulator with a monotonic clock."""

    def __init__(self) -> None:
        #: Current simulation time in seconds.  Anyone may read it;
        #: only the loop (:meth:`step`, :meth:`run_until`) writes it.
        self.now = 0.0
        #: Seq of the event being dispatched; after :meth:`run_until`
        #: lands the clock, the next seq to be issued.  Every event
        #: ordered before ``(now, dispatch_seq)`` has fired.  Only the
        #: loop writes it.
        self.dispatch_seq = -1
        self._heap: List[Handle] = []
        self._next_seq = 0
        #: Seqs filed by cancel; the pop drops (and unfiles) their entries.
        self._cancelled: Set[int] = set()
        self._running = False
        # Optional telemetry hook (repro.telemetry.profiler): when set,
        # step counts each dispatch into these two dicts in place, so
        # work can be attributed per callback.  Until one is installed
        # the hot path pays one check.
        self._dispatched: Optional[Dict[object, int]] = None
        self._first_callbacks: Optional[Dict[object, Action]] = None
        # Optional trace hook (repro.telemetry.tracing): when set,
        # every dispatch is digested as (time, seq, label) *before* the
        # callback runs, so dispatches order ahead of the RNG draws and
        # lifecycle transitions they cause.
        self._trace = None

    def set_profiler(self, profiler) -> None:
        """Install an event-dispatch profiler.

        ``profiler`` exposes two dicts that :meth:`step` fills in
        place, keyed on the callback's code object (its type, for a
        callable without one): ``dispatched``, events per key, and
        ``first_callbacks``, the first callback seen per key, which
        names it.  It observes only — execution stays here.
        """
        self._dispatched = profiler.dispatched
        self._first_callbacks = profiler.first_callbacks

    def set_trace(self, trace) -> None:
        """Install (or with ``None`` remove) a dispatch trace stream.

        ``trace`` must expose ``dispatch(time, seq, action)``
        (:class:`repro.telemetry.tracing.TraceStream`); it observes
        only — execution stays with the simulator.
        """
        self._trace = trace

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, action: Action) -> Handle:
        """Run ``action`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        time = self.now + delay
        if time - time != 0:  # NaN or +-inf
            raise SimulationError(f"event time is not finite: {time}")
        seq = self._next_seq
        self._next_seq = seq + 1
        handle = (time, seq, action)
        heappush(self._heap, handle)
        return handle

    def schedule_at(self, time: float, action: Action) -> Handle:
        """Run ``action`` at absolute simulated ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < {self.now}"
            )
        if time - time != 0:
            raise SimulationError(f"event time is not finite: {time}")
        seq = self._next_seq
        self._next_seq = seq + 1
        handle = (time, seq, action)
        heappush(self._heap, handle)
        return handle

    def reserve(self) -> int:
        """Take the next seq without scheduling anything.

        An event filed under it by :meth:`schedule_reserved` orders as
        if it had been scheduled now; unfiled, it changes nothing but
        the numbering of later events, like a cancelled one.
        """
        seq = self._next_seq
        self._next_seq = seq + 1
        return seq

    def schedule_reserved(self, time: float, seq: int, action: Action) -> Handle:
        """Run ``action`` at absolute ``time`` (>= now) under ``seq``,
        a seq :meth:`reserve` returned and nothing has filed yet."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < {self.now}"
            )
        if time - time != 0:
            raise SimulationError(f"event time is not finite: {time}")
        if not 0 <= seq < self._next_seq:
            raise SimulationError(f"seq {seq} was never reserved")
        handle = (time, seq, action)
        heappush(self._heap, handle)
        return handle

    def cancel(self, handle: Handle) -> None:
        """Cancel a pending event.  Cancelling twice, or cancelling an
        event that already fired, changes nothing."""
        self._cancelled.add(handle[1])

    # -- execution -----------------------------------------------------------

    def step(self) -> bool:
        """Execute the next event; returns False when none remain."""
        heap = self._heap
        if not heap:
            return False
        time, seq, action = heappop(heap)
        cancelled = self._cancelled
        if cancelled:
            while seq in cancelled:
                cancelled.discard(seq)
                if not heap:
                    return False
                time, seq, action = heappop(heap)
        self.now = time
        self.dispatch_seq = seq
        if self._trace is not None:
            self._trace.dispatch(time, seq, action)
        dispatched = self._dispatched
        if dispatched is not None:
            try:
                # A function or closure has it; a bound method answers
                # with its function's.
                key = action.__code__
            except AttributeError:
                # Builtin or callable object: its type is a stable,
                # bounded stand-in for the missing code object.
                key = type(getattr(action, "__func__", action))
            count = dispatched.get(key)
            if count is None:
                dispatched[key] = 1
                self._first_callbacks[key] = action
            else:
                dispatched[key] = count + 1
        action()
        return True

    def run_until(self, end_time: float) -> None:
        """Run events with ``time <= end_time``; the clock lands on
        ``end_time``.

        Events scheduled beyond ``end_time`` stay queued, so simulation
        can be resumed with a later horizon.
        """
        if end_time - end_time != 0:  # NaN or +-inf
            raise SimulationError(f"end_time is not finite: {end_time}")
        if end_time < self.now:
            raise SimulationError("end_time is in the past")
        self._guard_reentrancy()
        self._running = True
        heap = self._heap
        cancelled = self._cancelled
        try:
            while heap:
                top = heap[0]
                if top[0] > end_time:
                    break
                if cancelled and top[1] in cancelled:
                    heappop(heap)
                    cancelled.discard(top[1])
                    continue
                self.step()
            self.now = end_time
            # Every queued or reserved seq at or before the horizon has
            # now had its turn: the dispatch point moves past them all.
            self.dispatch_seq = self._next_seq
        finally:
            self._running = False

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the queue drains (or ``max_events`` executed)."""
        self._guard_reentrancy()
        self._running = True
        executed = 0
        try:
            while max_events is None or executed < max_events:
                if not self.step():
                    break
                executed += 1
        finally:
            self._running = False

    def close(self) -> None:
        """End the run: drop every pending event and cancellation.

        A pending action refers back to the world that scheduled it,
        which refers to this simulator; dropping the queue lets
        reference counting free that world.  Call it once nothing more
        is to be simulated: :meth:`run_until` keeps later events queued
        so that a run can be resumed, and after ``close`` there is
        nothing to resume.
        """
        self._heap.clear()
        self._cancelled.clear()

    def _guard_reentrancy(self) -> None:
        if self._running:
            raise SimulationError("simulator loop is not re-entrant")

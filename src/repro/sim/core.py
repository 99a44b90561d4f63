"""The simulator: a clock plus an event loop.

Usage::

    sim = Simulator()
    sim.schedule(1.5, lambda: print("fires at t=1.5"))
    sim.run_until(10.0)
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import SimulationError
from repro.sim.events import Event, EventQueue


class Simulator:
    """A discrete-event simulator with a monotonic clock."""

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False
        self._stopped = False
        self._processed = 0
        # Optional telemetry hook (repro.telemetry.profiler): when set,
        # events are executed through profiler.dispatch(action) so work
        # can be attributed per callback.  None keeps the hot path at a
        # direct call.
        self._profiler = None
        # Optional trace hook (repro.telemetry.tracing): when set,
        # every dispatch is digested as (time, seq, label) *before* the
        # callback runs, so dispatches order ahead of the RNG draws and
        # lifecycle transitions they cause.
        self._trace = None

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Total events executed so far (diagnostics)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    def set_profiler(self, profiler) -> None:
        """Install (or with ``None`` remove) an event-dispatch profiler.

        ``profiler`` must expose ``dispatch(action)`` and is expected to
        *execute* the action — it observes, it must not reorder or drop.
        """
        self._profiler = profiler

    def set_trace(self, trace) -> None:
        """Install (or with ``None`` remove) a dispatch trace stream.

        ``trace`` must expose ``dispatch(time, seq, action)``
        (:class:`repro.telemetry.tracing.TraceStream`); it observes
        only — execution stays with the simulator.
        """
        self._trace = trace

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None]) -> Event:
        """Run ``action`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self._queue.push(self._now + delay, action)

    def schedule_at(self, time: float, action: Callable[[], None]) -> Event:
        """Run ``action`` at absolute simulated ``time`` (>= now)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < {self._now}"
            )
        return self._queue.push(time, action)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (idempotent)."""
        if not event.cancelled:
            event.cancel()
            self._queue.note_cancelled()

    # -- execution -----------------------------------------------------------

    def step(self) -> bool:
        """Execute the next event; returns False when none remain."""
        event = self._queue.pop()
        if event is None:
            return False
        if event.time < self._now:
            raise SimulationError("event queue returned a past event")
        self._now = event.time
        self._processed += 1
        if self._trace is not None:
            self._trace.dispatch(event.time, event.seq, event.action)
        if self._profiler is None:
            event.action()
        else:
            self._profiler.dispatch(event.action)
        return True

    def run_until(self, end_time: float) -> None:
        """Run events with ``time <= end_time``; clock lands on end_time.

        Events scheduled beyond ``end_time`` stay queued, so simulation
        can be resumed with a later horizon.
        """
        if end_time < self._now:
            raise SimulationError("end_time is in the past")
        self._guard_reentrancy()
        self._running = True
        self._stopped = False
        try:
            while not self._stopped:
                next_time = self._queue.peek_time()
                if next_time is None or next_time > end_time:
                    break
                self.step()
            self._now = max(self._now, end_time)
        finally:
            self._running = False

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the queue drains (or ``max_events`` executed)."""
        self._guard_reentrancy()
        self._running = True
        self._stopped = False
        executed = 0
        try:
            while not self._stopped:
                if max_events is not None and executed >= max_events:
                    break
                if not self.step():
                    break
                executed += 1
        finally:
            self._running = False

    def stop(self) -> None:
        """Request the current run loop to exit after this event."""
        self._stopped = True

    def _guard_reentrancy(self) -> None:
        if self._running:
            raise SimulationError("simulator loop is not re-entrant")

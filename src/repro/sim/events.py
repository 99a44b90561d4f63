"""Event and event-queue primitives for the simulator.

Events at equal timestamps fire in scheduling order (FIFO), which makes
simulations fully deterministic for a fixed seed — a property the whole
experiment harness relies on.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError


class Event:
    """A scheduled callback.

    Fires in ``(time, seq)`` order; ``seq`` is a monotonically
    increasing scheduling counter so same-time events preserve FIFO
    order.
    """

    __slots__ = ("time", "seq", "action", "cancelled")

    def __init__(
        self, time: float, seq: int, action: Callable[[], None]
    ) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the queue skips it when popped."""
        self.cancelled = True

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time}, seq={self.seq}, "
            f"cancelled={self.cancelled})"
        )


class EventQueue:
    """A binary-heap priority queue of :class:`Event` objects.

    The heap holds ``(time, seq, event)`` tuples, so every sift
    compares floats and ints in C; ``seq`` is unique, so the event
    itself is never compared.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` at absolute ``time``; returns a handle."""
        if time - time != 0:  # NaN or +-inf
            raise SimulationError(f"event time is not finite: {time}")
        seq = next(self._counter)
        event = Event(time, seq, action)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def pop(self) -> Optional[Event]:
        """The earliest non-cancelled event, or ``None`` if empty.

        Cancelled events are dropped lazily here, so cancellation is
        O(1) and the heap never needs re-sifting.
        """
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[2]
            if event.cancelled:
                continue
            self._live -= 1
            return event
        self._live = 0
        return None

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event without removing it."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def note_cancelled(self) -> None:
        """Bookkeeping hook: a live event was cancelled externally."""
        if self._live > 0:
            self._live -= 1

"""Recurring simulation processes.

Protocol behaviours that repeat — beacon probes, duty-cycle wakeups,
workload packet generation, fault-injection rounds — are expressed as
:class:`PeriodicProcess` instances so start/stop/jitter logic lives in
one place.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.errors import SimulationError
from repro.sim.core import Simulator
from repro.sim.events import Handle


class PeriodicProcess:
    """Calls ``action`` every ``period`` seconds until stopped.

    ``jitter`` adds a uniform [0, jitter) offset to each firing, which
    de-synchronises node protocols the way real clock drift would; it
    requires an ``rng`` so determinism is preserved.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        action: Callable[[], None],
        jitter: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period}")
        if jitter < 0:
            raise SimulationError("jitter must be >= 0")
        if jitter > 0 and rng is None:
            raise SimulationError("jitter requires an rng for determinism")
        self._sim = sim
        self._period = period
        self._action = action
        self._jitter = jitter
        self._rng = rng
        self._pending: Optional[Handle] = None
        self._running = False
        self.fired = 0

    def start(self, initial_delay: float = 0.0) -> None:
        """Begin firing; first firing after ``initial_delay`` (+ jitter)."""
        if self._running:
            return
        self._running = True
        self._schedule(initial_delay)

    def stop(self) -> None:
        """Stop firing (idempotent); a pending firing is cancelled."""
        self._running = False
        if self._pending is not None:
            self._sim.cancel(self._pending)
            self._pending = None

    def _schedule(self, delay: float) -> None:
        offset = self._rng.uniform(0, self._jitter) if self._jitter else 0.0
        self._pending = self._sim.schedule(delay + offset, self._fire)

    def _fire(self) -> None:
        if not self._running:
            return
        self._pending = None
        self.fired += 1
        self._action()
        if self._running:
            self._schedule(self._period)

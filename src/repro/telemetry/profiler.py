"""The sim-time profiler: who is doing the simulated work?

Attributes the run's activity to subsystems along two axes:

* **simulated work** — events dispatched per callback (collapsed to
  ``module:function``), bytes put on the air, and (via the registry's
  energy families) joules by kind/phase.  These are pure functions of
  the event stream, so they are deterministic and safe to export.
* **wall-clock hotspots** — cumulative host-CPU seconds per callback
  for the scheduler hot path.  Wall readings are inherently
  nondeterministic, so they are kept in a side table that never enters
  the registry or any deterministic export; they only surface in the
  human-facing report (and only when ``wall_clock`` is requested).

The profiler plugs into :meth:`repro.sim.core.Simulator.set_profiler`;
the dispatch wrapper is the hot path, so it does the minimum — one
dict get/add keyed on the callback's **code object** (shared by every
closure instance and bound method of the same function, and hashed by
identity, unlike a ``(module, qualname)`` string tuple) — and defers
name resolution and the pretty label collapse to snapshot time.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.telemetry.registry import Registry

__all__ = ["SimProfiler"]

_RawName = Tuple[str, str]  # (callback __module__, callback __qualname__)


def _label(raw: _RawName) -> str:
    """Collapse ``(module, qualname)`` to a stable ``module:function``
    label, e.g. ``repro.net.mac:ContentionMac.transmit``."""
    module, qualname = raw
    if module.startswith("repro."):
        module = module[len("repro."):]
    return f"{module}:{qualname.split('.<locals>')[0]}"


class SimProfiler:
    """Per-event-kind attribution of simulated and wall-clock work."""

    def __init__(self, wall_clock: bool = False) -> None:
        self.wall_clock = wall_clock
        #: code object (or callable type) -> events dispatched.
        self._events: Dict[object, int] = {}
        #: same keys -> (module, qualname), filled on first sight.
        self._names: Dict[object, _RawName] = {}
        self._wall: Dict[object, float] = {}
        self._bytes_on_air = 0
        self._frames_on_air = 0

    # -- hot path ----------------------------------------------------------

    def dispatch(self, action: Callable[[], None]) -> None:
        """Execute one simulator event, attributing it to its callback."""
        try:
            # A function or closure has it; a bound method answers with
            # its function's.
            key = action.__code__
        except AttributeError:
            # Builtin or callable object: its type is a stable,
            # bounded stand-in for the missing code object.
            key = type(getattr(action, "__func__", action))
        events = self._events
        count = events.get(key)
        if count is None:
            events[key] = 1
            func = getattr(action, "__func__", action)
            self._names[key] = (
                getattr(func, "__module__", "?") or "?",
                getattr(func, "__qualname__", type(func).__qualname__),
            )
        else:
            events[key] = count + 1
        if self.wall_clock:
            # The profiler's whole purpose is measuring *host* cost of
            # sim work; the reading never feeds back into sim behaviour
            # (it is reported, not scheduled on).
            started = time.perf_counter()  # referlint: disable=REF002
            try:
                action()
            finally:
                self._wall[key] = (
                    self._wall.get(key, 0.0)
                    + time.perf_counter()  # referlint: disable=REF002
                    - started
                )
        else:
            action()

    def on_air(self, nbytes: int, frames: int = 1) -> None:
        """``frames`` frames of ``nbytes`` each were put on the air (the
        MAC reports all attempts of one transmission in one call)."""
        self._bytes_on_air += nbytes * frames
        self._frames_on_air += frames

    # -- snapshots ---------------------------------------------------------

    @property
    def bytes_on_air(self) -> int:
        return self._bytes_on_air

    @property
    def frames_on_air(self) -> int:
        return self._frames_on_air

    def event_counts(self) -> Dict[str, int]:
        """Events dispatched per collapsed callback label (sorted)."""
        merged: Dict[str, int] = {}
        for key, count in self._events.items():
            label = _label(self._names[key])
            merged[label] = merged.get(label, 0) + count
        return dict(sorted(merged.items()))

    def wall_hotspots(self, top: int = 10) -> List[Tuple[str, float, int]]:
        """Top callbacks by cumulative host seconds as
        ``(label, seconds, events)``.  Empty unless ``wall_clock`` was
        enabled.  NONDETERMINISTIC — report-only, never exported."""
        merged: Dict[str, float] = {}
        for key, seconds in self._wall.items():
            label = _label(self._names[key])
            merged[label] = merged.get(label, 0.0) + seconds
        counts = self.event_counts()
        ranked = sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))
        return [
            (label, seconds, counts.get(label, 0))
            for label, seconds in ranked[:top]
        ]

    def finalize(self, registry: Registry) -> None:
        """Fold the deterministic counters into ``registry``.

        Called once at end of run; wall-clock data is deliberately NOT
        written (it would poison deterministic exports).
        """
        events = registry.counter(
            "sim_events_dispatched",
            "simulator events executed, by callback",
            labels=("callback",),
        )
        for label, count in self.event_counts().items():
            events.child(label).inc(count)
        registry.counter(
            "mac_bytes_on_air", "payload bytes across all MAC attempts"
        ).inc(self._bytes_on_air)
        registry.counter(
            "mac_frames_on_air", "frames put on the air (MAC attempts)"
        ).inc(self._frames_on_air)

"""The sim-time profiler: who is doing the simulated work?

Attributes the run's simulated work to subsystems: events dispatched
per callback (collapsed to ``module:function``), bytes put on the air,
and (via the registry's energy families) joules by kind/phase.  These
are pure functions of the event stream, so they are deterministic and
safe to export.  Host time is not measured here: ``python -m
repro.telemetry.report --wall`` profiles the whole run with
:mod:`cProfile`, construction included.

The profiler plugs into :meth:`repro.sim.core.Simulator.set_profiler`:
``Simulator.step`` counts each dispatch into :attr:`SimProfiler.dispatched`
in place — one dict get/add keyed on the callback's **code object**
(shared by every closure instance and bound method of the same
function, and hashed by identity, unlike a ``(module, qualname)``
string tuple) — and keeps the first callback seen per key in
:attr:`SimProfiler.first_callbacks`.  Name resolution and the pretty
label collapse wait for snapshot time; a named key keeps its label and
drops its callback, which would otherwise hold the run's world alive
for as long as the profiler lives.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.telemetry.registry import Registry

__all__ = ["SimProfiler"]


def _label(action: Callable[[], None]) -> str:
    """Collapse a callback's ``(module, qualname)`` to a stable
    ``module:function`` label, e.g.
    ``repro.net.mac:ContentionMac.transmit``."""
    func = getattr(action, "__func__", action)
    module = getattr(func, "__module__", "?") or "?"
    qualname = getattr(func, "__qualname__", type(func).__qualname__)
    if module.startswith("repro."):
        module = module[len("repro."):]
    return f"{module}:{qualname.split('.<locals>')[0]}"


class SimProfiler:
    """Per-event-kind attribution of simulated work."""

    def __init__(self) -> None:
        #: code object (or callable type) -> events dispatched, counted
        #: in place by ``Simulator.step``.
        self.dispatched: Dict[object, int] = {}
        #: same keys -> the first callback seen, which names the key;
        #: emptied (in place: the simulator shares it) as keys are named.
        self.first_callbacks: Dict[object, Callable[[], None]] = {}
        #: same keys -> their collapsed label, once named.
        self._labels: Dict[object, str] = {}
        self._bytes_on_air = 0
        self._frames_on_air = 0

    # -- hot path ----------------------------------------------------------

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
        """Events dispatched per collapsed callback label (sorted).

        Names each key first seen since the last call and drops its
        callback; ``finalize`` calls it, so a finished run keeps labels
        only."""
        labels = self._labels
        for key, action in self.first_callbacks.items():
            labels[key] = _label(action)
        self.first_callbacks.clear()
        merged: Dict[str, int] = {}
        for key, count in self.dispatched.items():
            label = labels[key]
            merged[label] = merged.get(label, 0) + count
        return dict(sorted(merged.items()))

    def finalize(self, registry: Registry) -> None:
        """Fold the counters into ``registry`` (once, at end of run)."""
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

"""Lightweight tracing for simulations.

A :class:`TraceLog` records ``(time, category, message)`` tuples with a
bounded memory footprint and per-category counters.  Protocol code
traces unconditionally; the log decides whether to retain the entry, so
tracing stays cheap in benchmark runs.

The per-category counters live in a telemetry registry
(:mod:`repro.telemetry.registry`) as the labelled counter family
``trace_events{category}``; pass ``registry=`` to share the run's
registry, or omit it for a private one.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, NamedTuple, Optional

from repro.telemetry.registry import MetricFamily, Registry


class TraceEntry(NamedTuple):
    time: float
    category: str
    message: str


class TraceLog:
    """A bounded in-memory trace with per-category counters."""

    def __init__(
        self,
        capacity: int = 10_000,
        enabled: bool = True,
        registry: Optional[Registry] = None,
    ) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if registry is None:
            registry = Registry()
        self._entries: Deque[TraceEntry] = deque(maxlen=capacity)
        self._family: MetricFamily = registry.counter(
            "trace_events", "trace records by category", labels=("category",)
        )
        self.enabled = enabled

    def record(self, time: float, category: str, message: str = "") -> None:
        """Count the event and, if enabled, retain the entry."""
        self._family.child(category).inc()
        if self.enabled:
            self._entries.append(TraceEntry(time, category, message))

    def count(self, category: str) -> int:
        """How many events of ``category`` were recorded (ever)."""
        return self._family.value_at(category)

    def entries(self, category: Optional[str] = None) -> List[TraceEntry]:
        """Retained entries, optionally filtered by category."""
        if category is None:
            return list(self._entries)
        return [e for e in self._entries if e.category == category]

    def categories(self) -> List[str]:
        return sorted(
            labels[0]
            for labels, metric in self._family.items()
            if metric.value
        )

    def clear(self) -> None:
        """Drop retained entries and zero the counters."""
        self._entries.clear()
        self._family.reset()

"""Stats views: dataclass-shaped facades over registry counters.

The pre-telemetry codebase grew eight disconnected stats dataclasses
(``RoutingStats``, ``ArqStats``, ...), each inventing its own counters.
They are now *views*: the counters live in a
:class:`~repro.telemetry.registry.Registry` and the view exposes them
as plain attributes, so existing call sites (``stats.detours += 1``)
and existing tests (``assert stats.detours == 0``) keep working while
every number has exactly one home.

Usage::

    class RoutingStats(StatsView):
        _group = "routing"
        detours = counter_field("non-best successors taken")

    stats = RoutingStats(registry=network.registry)
    stats.detours += 1
    network.registry.get("routing_detours").value   # -> 1

A view constructed without a registry creates a private one, so unit
tests and standalone components pay nothing for the indirection.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.telemetry.registry import Registry

__all__ = ["StatsView", "counter_field", "gauge_field"]


class _MetricField:
    """Descriptor mapping an attribute onto a registry metric child.

    A read returns the held child's ``_value`` and an assignment stores
    it, whatever the field's kind — ``stats.x += 1`` is this ``__get__``
    and this ``__set__`` and nothing below them.  The view is a
    write-through facade, so a counter field takes any value assigned
    (``Counter.inc`` is where "counters only increase" is enforced).
    """

    kind = "counter"

    def __init__(self, help: str = "", default=0) -> None:
        self.help = help
        self.default = default
        self.name = ""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return obj._metric_handles[self.name]._value

    def __set__(self, obj, value) -> None:
        obj._metric_handles[self.name]._value = value


class counter_field(_MetricField):
    """A monotone int/float stat backed by a registry counter."""

    kind = "counter"


class gauge_field(_MetricField):
    """A freely assignable stat backed by a registry gauge."""

    kind = "gauge"


class StatsView:
    """Base class for registry-backed stats facades.

    Subclasses set ``_group`` (the metric-name prefix) and declare
    fields with :func:`counter_field` / :func:`gauge_field`; the
    metric for field ``f`` is registered as ``"<group>_<f>"``.  Other
    attributes (``RunningStat`` aggregates, dict payloads) are assigned
    normally in the subclass ``__init__``.
    """

    _group = ""

    def __init__(self, registry: Optional[Registry] = None) -> None:
        if registry is None:
            registry = Registry()
        handles: Dict[str, object] = {}
        for klass in type(self).__mro__:
            for name, attr in vars(klass).items():
                if not isinstance(attr, _MetricField) or name in handles:
                    continue
                metric_name = f"{self._group}_{name}" if self._group else name
                if attr.kind == "gauge":
                    family = registry.gauge(metric_name, attr.help)
                else:
                    family = registry.counter(metric_name, attr.help)
                fresh = family.value_at(default=None) is None
                child = family.child()
                if fresh and attr.default:
                    child._value = attr.default
                handles[name] = child
        self._metric_handles: Dict[str, object] = handles

    def __repr__(self) -> str:  # mirrors the old dataclass repr style
        fields = ", ".join(
            f"{name}={self._metric_handles[name]._value!r}"
            for name in sorted(self._metric_handles)
        )
        return f"{type(self).__name__}({fields})"

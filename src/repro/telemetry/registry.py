"""The metrics registry: labelled counters, gauges and histograms.

One :class:`Registry` per run is the single source of truth for every
number the instrumentation produces.  Protocol-level stats objects
(``RoutingStats``, ``ArqStats``, ...) are thin views over registry
counters (:mod:`repro.telemetry.views`), the energy ledger stores its
joules in labelled counter families, and the exporters
(:mod:`repro.telemetry.export`) walk :meth:`Registry.collect` to render
JSONL or Prometheus text.

Design constraints, in order:

* **determinism** — metrics record simulated quantities only; nothing
  in this module reads a wall clock or an RNG, and iteration orders are
  insertion/sorted, never hash-randomised;
* **cheap hot path** — a child is a stable handle (``reset()`` zeroes
  it in place), so hot code resolves ``family.child(labels)`` once and
  holds it; ``family.child(labels).inc()`` is the convenience form for
  code that counts rarely.  :meth:`MetricFamily.held` is the holder for
  children that must still appear at their first use: a dict that
  resolves a miss through ``child(...)`` once.  Code that has validated
  the amount itself (the energy ledger, the stats views) adds to the
  held child's ``_value``;
* **stdlib only** — the API is a deliberately tiny subset of
  ``prometheus_client`` (families, label children, fixed-bucket
  histograms) with none of its process machinery.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import TelemetryError

LabelValues = Tuple[object, ...]

#: Default histogram buckets, tuned for sim-time latencies (seconds).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotone accumulator (int or float)."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0

    @property
    def value(self):
        return self._value

    def inc(self, amount=1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise TelemetryError("counters only increase")
        self._value += amount

    def _set(self, value) -> None:
        """Write-through for stats views (``stats.drops += 1`` reads the
        value and assigns the new total); not part of the public API."""
        self._value = value


class Gauge:
    """A value that can move in both directions."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0

    @property
    def value(self):
        return self._value

    def set(self, value) -> None:
        self._value = value

    def inc(self, amount=1) -> None:
        self._value += amount

    def dec(self, amount=1) -> None:
        self._value -= amount

    _set = set


class Histogram:
    """Fixed-bucket histogram with interpolated quantile estimates.

    Buckets are upper bounds (ascending); observations beyond the last
    bound land in an implicit overflow bucket.  Estimation error of
    :meth:`quantile` is bounded by the width of the bucket containing
    the true quantile (the property test pins this against a
    sorted-list oracle).
    """

    __slots__ = ("_bounds", "_counts", "_sum", "_count", "_min", "_max")

    def __init__(self, bounds: Sequence[float]) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise TelemetryError("histogram bounds must be ascending")
        if len(set(bounds)) != len(bounds):
            raise TelemetryError("histogram bounds must be distinct")
        self._bounds = tuple(float(b) for b in bounds)
        self._counts = [0] * (len(self._bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def bounds(self) -> Tuple[float, ...]:
        return self._bounds

    def bucket_counts(self) -> List[int]:
        """Per-bucket (non-cumulative) observation counts; the last
        entry is the overflow bucket."""
        return list(self._counts)

    def observe(self, value: float) -> None:
        """Fold one observation into the histogram."""
        index = bisect.bisect_left(self._bounds, value)
        self._counts[index] += 1
        self._sum += value
        self._count += 1
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 <= q <= 1) of the observations.

        Linear interpolation inside the bucket holding the target rank,
        clamped to the observed [min, max]; 0.0 when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise TelemetryError("quantile must be in [0, 1]")
        if self._count == 0:
            return 0.0
        assert self._min is not None and self._max is not None
        target = q * self._count
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count < target:
                cumulative += bucket_count
                continue
            lo = self._min if cumulative == 0 else (
                self._bounds[index - 1] if index > 0 else self._min
            )
            hi = self._max if index == len(self._bounds) else min(
                self._bounds[index], self._max
            )
            lo = max(lo, self._min)
            fraction = (target - cumulative) / bucket_count
            value = lo + fraction * (hi - lo)
            return min(max(value, self._min), self._max)
        return self._max


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """A named metric plus its per-label-value children.

    A family declared without labels has exactly one child (the empty
    tuple); the convenience delegates (:meth:`inc`, :meth:`set`,
    :meth:`observe`, :attr:`value`) address it so unlabelled metrics
    read like plain counters.
    """

    __slots__ = ("name", "kind", "help", "labels", "_children", "_buckets")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        if kind not in _KINDS:
            raise TelemetryError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.labels = tuple(labels)
        self._buckets = tuple(buckets)
        self._children: Dict[LabelValues, object] = {}

    def child(self, *label_values):
        """The child for ``label_values``, created on first use."""
        if len(label_values) != len(self.labels):
            raise TelemetryError(
                f"{self.name} expects labels {self.labels}, "
                f"got {label_values!r}"
            )
        existing = self._children.get(label_values)
        if existing is None:
            if self.kind == "histogram":
                existing = Histogram(self._buckets)
            else:
                existing = _KINDS[self.kind]()
            self._children[label_values] = existing
        return existing

    def held(self, *rest) -> "_Held":
        """A holder of this family's children with the trailing labels
        fixed to ``rest``: ``held[key]`` is ``child(key, *rest)``,
        resolved (and so created) at its first use and a plain dict hit
        after it.  ``key`` is the leading label, a tuple when several
        are left open, ``()`` when none is."""
        return _Held(self, rest)

    def value_at(self, *label_values, default=0):
        """Read a child's value without creating it."""
        child = self._children.get(label_values)
        if child is None:
            return default
        return child.value

    def items(self) -> List[Tuple[LabelValues, object]]:
        """``(label_values, child)`` pairs in insertion order."""
        return list(self._children.items())

    def reset(self) -> None:
        """Zero every child (keeps the children registered)."""
        for child in self._children.values():
            if isinstance(child, Histogram):
                child.__init__(self._buckets)
            else:
                child._set(0)  # type: ignore[union-attr]

    # -- unlabelled conveniences -------------------------------------------

    @property
    def value(self):
        return self.child().value

    def inc(self, amount=1) -> None:
        self.child().inc(amount)

    def set(self, value) -> None:
        self.child().set(value)

    def observe(self, value: float) -> None:
        self.child().observe(value)


class _Held(dict):
    """Held children of one family (:meth:`MetricFamily.held`): a miss
    makes the ``child(...)`` call a per-use lookup would make, at the
    same moment, so children keep their first-use order."""

    def __init__(self, family: MetricFamily, rest: LabelValues) -> None:
        super().__init__()
        self._family, self._rest = family, rest

    def __missing__(self, key):
        lead = key if isinstance(key, tuple) else (key,)
        child = self[key] = self._family.child(*lead, *self._rest)
        return child


class Sample(NamedTuple):
    """One collected data point: a family child with resolved labels."""

    name: str
    kind: str
    labels: Dict[str, object]
    metric: object


class Registry:
    """The per-run metric store.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking for
    an existing name returns the existing family (so views constructed
    at different layers share storage) and raises
    :class:`~repro.errors.TelemetryError` when the kind or label set
    disagrees — a name can mean only one thing.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind or existing.labels != tuple(labels):
                raise TelemetryError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}{existing.labels}"
                )
            return existing
        family = MetricFamily(name, kind, help, labels, buckets)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Get or create a counter family."""
        return self._family(name, "counter", help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Get or create a gauge family."""
        return self._family(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        """Get or create a histogram family with fixed ``buckets``."""
        return self._family(name, "histogram", help, labels, buckets)

    def get(self, name: str) -> Optional[MetricFamily]:
        """The family registered under ``name`` (None if absent)."""
        return self._families.get(name)

    def families(self) -> List[MetricFamily]:
        """Every family, sorted by name (deterministic export order)."""
        return [self._families[name] for name in sorted(self._families)]

    def collect(self) -> Iterator[Sample]:
        """Every child of every family as a flat, ordered sample stream."""
        for family in self.families():
            for label_values, metric in sorted(
                family.items(), key=lambda kv: tuple(str(v) for v in kv[0])
            ):
                yield Sample(
                    name=family.name,
                    kind=family.kind,
                    labels=dict(zip(family.labels, label_values)),
                    metric=metric,
                )

    def as_dict(self) -> Dict[str, Dict[Tuple[object, ...], object]]:
        """Scalar snapshot ``{name: {label_values: value}}`` (tests,
        report rendering); histograms contribute their counts."""
        out: Dict[str, Dict[Tuple[object, ...], object]] = {}
        for family in self.families():
            values: Dict[Tuple[object, ...], object] = {}
            for label_values, metric in family.items():
                if isinstance(metric, Histogram):
                    values[label_values] = metric.count
                else:
                    values[label_values] = metric.value
            out[family.name] = values
        return out

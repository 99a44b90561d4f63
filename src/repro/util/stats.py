"""Small statistics helpers: running moments and 95% confidence intervals.

The paper reports every experimental point with a 95% confidence
interval; :func:`confidence_interval_95` reproduces that using the
Student-t critical value (normal approximation above 30 samples).
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

# Two-sided Student-t critical values at 95% for df = 1..30.
_T_TABLE = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean of a non-empty sequence."""
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def stdev(values: Sequence[float]) -> float:
    """Sample standard deviation (n-1 denominator); 0.0 for n < 2."""
    n = len(values)
    if n < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / (n - 1))


def t_critical_95(df: int) -> float:
    """Two-sided 95% Student-t critical value for ``df`` degrees of freedom."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if df <= len(_T_TABLE):
        return _T_TABLE[df - 1]
    return 1.96


def confidence_interval_95(values: Sequence[float]) -> Tuple[float, float]:
    """``(mean, half_width)`` of the 95% confidence interval.

    Half-width is 0.0 when fewer than two samples are available.
    """
    mu = mean(values)
    n = len(values)
    if n < 2:
        return (mu, 0.0)
    half = t_critical_95(n - 1) * stdev(values) / math.sqrt(n)
    return (mu, half)


class RunningStat:
    """Welford's online mean.

    Collecting per-packet latencies in a long simulation should not
    retain every sample; this accumulator keeps O(1) state.
    """

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0

    def add(self, value: float) -> None:
        """Fold one sample into the accumulator."""
        self._count += 1
        self._mean += (value - self._mean) / self._count

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        """Mean of the samples seen so far (0.0 when empty)."""
        return self._mean if self._count else 0.0


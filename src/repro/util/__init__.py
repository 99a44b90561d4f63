"""Shared utilities: geometry, RNG streams, statistics, consistent hashing."""

from repro.util.geometry import Point
from repro.util.hashing import consistent_hash
from repro.util.rng import RngStreams
from repro.util.stats import RunningStat, confidence_interval_95, mean, stdev

__all__ = [
    "Point",
    "consistent_hash",
    "RngStreams",
    "RunningStat",
    "confidence_interval_95",
    "mean",
    "stdev",
]

"""A deterministic discrete-event simulation engine.

Stands in for ns-2 as the substrate of the evaluation.  The engine is
deliberately small: a monotonic clock, a binary heap of events with
deterministic FIFO tie-breaking, cancellable events, timers and
periodic processes.
"""

from repro.sim.core import Simulator
from repro.sim.events import Handle
from repro.sim.process import PeriodicProcess

__all__ = [
    "Simulator",
    "Handle",
    "PeriodicProcess",
]

"""The chaos coordinator: one handle over a set of fault models.

The runner composes any number of :class:`ChaosModel`\\ s per run; the
coordinator starts/stops them together, merges their event logs, and
answers the two questions the instrumentation hooks ask: *is any
fault active right now?* (routing detour attribution) and *when was
this node broken?* (maintenance replacement latency).
"""

from __future__ import annotations

from typing import List, Optional

from repro.chaos.models import ChaosModel, FaultEvent
from repro.net.network import WirelessNetwork


class ChaosCoordinator:
    """Starts, stops and aggregates a family of chaos models."""

    def __init__(self, network: WirelessNetwork) -> None:
        self.network = network
        self.models: List[ChaosModel] = []

    def add(self, model: ChaosModel) -> ChaosModel:
        """Register a model (returned for chaining)."""
        self.models.append(model)
        return model

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Start every model; each first acts at its own ``spec.start``."""
        for model in self.models:
            model.start()

    def stop(self, recover: bool = True) -> None:
        for model in self.models:
            model.stop(recover=recover)

    # -- aggregation ---------------------------------------------------------

    def events(self) -> List[FaultEvent]:
        """All models' events merged in sim-time order."""
        merged = [
            event for model in self.models for event in model.events
        ]
        merged.sort(key=lambda e: (e.time, e.model, e.kind))
        return merged

    def any_active(self) -> bool:
        """Whether any registered model is degrading the network now."""
        return any(model.active() for model in self.models)

    def fail_time_of(self, node_id: int) -> Optional[float]:
        """When a chaos model failed ``node_id`` (None if none did)."""
        for model in self.models:
            when = model.fail_time_of(node_id)
            if when is not None:
                return when
        return None

"""The awake/sleep scheme (Section III-B4).

REFER keeps three functional states for sensors: *active* nodes form
the Kautz graph, *wait* nodes are candidates ready to replace an active
node, and *sleep* nodes conserve energy, waking periodically to probe
whether they qualify as candidates.  This module tracks the states;
the maintenance protocol that drives it picks replacements by probing,
promotes them straight from SLEEP (nothing enters WAIT yet) and charges
the energy cost of probing.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable

from repro.errors import ConfigError


class SensorState(enum.Enum):
    """The three functional states of Section III-B4."""

    ACTIVE = "active"
    WAIT = "wait"
    SLEEP = "sleep"


class DutyCycleManager:
    """Tracks sensor functional states."""

    def __init__(self, sensor_ids: Iterable[int]) -> None:
        self._state: Dict[int, SensorState] = {
            sid: SensorState.SLEEP for sid in sensor_ids
        }

    # -- queries ------------------------------------------------------------

    def state(self, sensor_id: int) -> SensorState:
        try:
            return self._state[sensor_id]
        except KeyError:
            raise ConfigError(f"unknown sensor {sensor_id}") from None

    # -- transitions -----------------------------------------------------------

    def activate(self, sensor_id: int) -> None:
        """Promote to ACTIVE (becomes a Kautz node)."""
        self.state(sensor_id)  # existence check
        self._state[sensor_id] = SensorState.ACTIVE

    def deactivate(self, sensor_id: int) -> None:
        """Demote an ACTIVE sensor back to SLEEP (it was replaced)."""
        self.state(sensor_id)
        self._state[sensor_id] = SensorState.SLEEP

    def replace(self, active_id: int, candidate_id: int) -> None:
        """Swap: candidate becomes ACTIVE, the old node sleeps."""
        if self.state(candidate_id) is SensorState.ACTIVE:
            raise ConfigError(f"{candidate_id} is already active")
        self.deactivate(active_id)
        self.activate(candidate_id)

"""Network node model: identity, role, radio state, liveness.

A node is *failed* when the fault injector has broken it and *dead*
when its battery is exhausted (optional in most experiments); only
unfailed, undead nodes take part in communication.  (The WSAN duty
cycle is bookkeeping in :mod:`repro.wsan.duty_cycle`: a sensor it has
parked still hears and is charged for every frame in range.)
"""

from __future__ import annotations

import enum
import math
from typing import Dict, Optional

from repro.errors import NetworkError
from repro.net.mobility import MobilityModel
from repro.util.geometry import Point


class NodeRole(enum.Enum):
    """Device class: low-power sensor or resource-rich actuator."""

    SENSOR = "sensor"
    ACTUATOR = "actuator"


class Node:
    """One wireless device."""

    def __init__(
        self,
        node_id: int,
        role: NodeRole,
        mobility: MobilityModel,
        transmission_range: float,
        battery_joules: Optional[float] = None,
    ) -> None:
        if not (math.isfinite(transmission_range) and transmission_range > 0):
            raise NetworkError(
                "transmission_range must be finite and positive, "
                f"got {transmission_range!r}"
            )
        self.id = node_id
        self.role = role
        self.mobility = mobility
        self.transmission_range = transmission_range
        #: Where an occupied radio files its id, and a node whose
        #: liveness was ever written: the busy set and the watch of the
        #: medium this node is registered with (``add_node`` sets them).
        #: They hold ids, not nodes, so no node refers to itself.
        self._busy_radios: Optional[Dict[int, None]] = None
        self._watched: Optional[Dict[int, None]] = None
        self.battery_joules = battery_joules
        self.consumed_joules = 0.0
        self._failed = False
        self.radio_busy_until = 0.0

    # -- position -----------------------------------------------------------

    def position(self, now: float) -> Point:
        return self.mobility.position(now)

    def distance_to(self, other: "Node", now: float) -> float:
        """Metres between the two nodes at ``now``.

        The net layer's geometry, for one pair: both positions
        straight from the mobility models, one ``hypot`` (the value
        ``Point.distance_to`` returns).  Range tests compare this
        distance, never its square, so a boundary case cannot flip by
        an ulp.
        """
        here = self.mobility.position(now)
        there = other.mobility.position(now)
        return math.hypot(here.x - there.x, here.y - there.y)

    # -- radio ------------------------------------------------------------------

    @property
    def radio_busy_until(self) -> float:
        """MAC state: the time until which this node's radio is busy.

        Assigning it *is* occupying the radio: the write also files the
        node in its medium's busy set, which is all
        :meth:`WirelessMedium.contention_at` walks — so the MAC, a
        flood and a test that fakes a busy neighbour cannot forget to.
        """
        return self._radio_busy_until

    @radio_busy_until.setter
    def radio_busy_until(self, until: float) -> None:
        self._radio_busy_until = until
        if self._busy_radios is not None:
            self._busy_radios[self.id] = None

    # -- liveness --------------------------------------------------------------

    @property
    def failed(self) -> bool:
        """Broken by a fault (``fail_node``), until recovered.

        Assigning it, like assigning :attr:`battery_joules`, files the
        node in its medium's watch: a node never filed has never been
        failed or metered, so it is usable without a read.
        """
        return self._failed

    @failed.setter
    def failed(self, failed: bool) -> None:
        self._failed = failed
        if self._watched is not None:
            self._watched[self.id] = None

    @property
    def battery_joules(self) -> Optional[float]:
        """Battery capacity in joules; ``None`` is unmetered."""
        return self._battery_joules

    @battery_joules.setter
    def battery_joules(self, joules: Optional[float]) -> None:
        if joules is not None and not (math.isfinite(joules) and joules > 0):
            raise NetworkError(
                "battery_joules must be None or finite and positive, "
                f"got {joules!r}"
            )
        self._battery_joules = joules
        if self._watched is not None:
            self._watched[self.id] = None

    @property
    def is_sensor(self) -> bool:
        return self.role is NodeRole.SENSOR

    @property
    def is_actuator(self) -> bool:
        return self.role is NodeRole.ACTUATOR

    @property
    def battery_exhausted(self) -> bool:
        battery = self._battery_joules
        return battery is not None and self.consumed_joules >= battery

    @property
    def usable(self) -> bool:
        """Can this node transmit/receive right now?"""
        if self._failed:
            return False
        battery = self._battery_joules
        return battery is None or self.consumed_joules < battery

    @property
    def battery_fraction(self) -> float:
        """Remaining battery as a fraction (1.0 when unmetered)."""
        battery = self._battery_joules
        if battery is None:
            return 1.0
        return max(0.0, (battery - self.consumed_joules) / battery)

    def drain(self, joules: float) -> None:
        """Deduct battery energy (no-op accounting when unmetered); just
        this add, which ``WirelessNetwork``'s charges and floods inline."""
        self.consumed_joules += joules

    def __repr__(self) -> str:
        return f"Node({self.id}, {self.role.value})"

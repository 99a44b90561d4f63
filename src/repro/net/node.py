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
        if transmission_range <= 0:
            raise NetworkError("transmission_range must be positive")
        self.id = node_id
        self.role = role
        self.mobility = mobility
        self.transmission_range = transmission_range
        self.battery_joules = battery_joules
        self.consumed_joules = 0.0
        self.failed = False
        #: Where an occupied radio files itself: the busy set of the
        #: medium this node is registered with (``add_node`` sets it).
        self._busy_radios: Optional[Dict[int, "Node"]] = None
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

    def in_range_of(self, other: "Node", now: float) -> bool:
        """Whether this node's transmissions reach ``other``."""
        return self.distance_to(other, now) <= self.transmission_range

    def bidirectional_link(self, other: "Node", now: float) -> bool:
        """Whether both directions are in range (usable for a protocol link)."""
        distance = self.distance_to(other, now)
        return (
            distance <= self.transmission_range
            and distance <= other.transmission_range
        )

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
            self._busy_radios[self.id] = self

    # -- liveness --------------------------------------------------------------

    @property
    def is_sensor(self) -> bool:
        return self.role is NodeRole.SENSOR

    @property
    def is_actuator(self) -> bool:
        return self.role is NodeRole.ACTUATOR

    @property
    def battery_exhausted(self) -> bool:
        return (
            self.battery_joules is not None
            and self.consumed_joules >= self.battery_joules
        )

    @property
    def usable(self) -> bool:
        """Can this node transmit/receive right now?"""
        if self.failed:
            return False
        battery = self.battery_joules
        return battery is None or self.consumed_joules < battery

    @property
    def battery_fraction(self) -> float:
        """Remaining battery as a fraction (1.0 when unmetered)."""
        if self.battery_joules is None:
            return 1.0
        remaining = self.battery_joules - self.consumed_joules
        return max(0.0, remaining / self.battery_joules)

    def drain(self, joules: float) -> None:
        """Deduct battery energy (no-op accounting when unmetered); just
        this add, which ``WirelessNetwork.charge_rx_each`` inlines."""
        self.consumed_joules += joules

    def __repr__(self) -> str:
        return f"Node({self.id}, {self.role.value})"

"""The WSAN system abstraction every evaluated system implements.

The experiment harness drives REFER and the three baselines through
this interface: build the topology (construction phase), start the
runtime protocols, and inject application events at source sensors.
A shared node-construction helper keeps deployments identical across
systems so comparisons are apples-to-apples.
"""

from __future__ import annotations

import abc
import random
from typing import Callable, List, Optional

from repro.net.mobility import RandomWaypoint, StaticMobility
from repro.net.network import QOS_VERDICTS, WirelessNetwork
from repro.net.node import Node, NodeRole
from repro.net.packet import Packet
from repro.util.rng import KeyedStream
from repro.wsan.deployment import DeploymentPlan

DeliveredCallback = Callable[[Packet], None]
#: ``(packet, reason)``: ``reason`` is an entry of
#: :data:`~repro.telemetry.flight.DROP_REASONS`.
DroppedCallback = Callable[[Packet, str], None]

#: Transmission range of a sensor and of an actuator, metres (the
#: paper's 100 m / 250 m).
SENSOR_RANGE = 100.0
ACTUATOR_RANGE = 250.0


def build_nodes(
    network: WirelessNetwork,
    plan: DeploymentPlan,
    rng: random.Random,
    sensor_max_speed: float = 3.0,
    battery_joules: Optional[float] = None,
) -> None:
    """Instantiate the deployment's nodes into ``network``.

    Node-id convention used across the whole repository: actuators are
    ``0 .. A-1`` (static), sensors are ``A .. A+n-1`` (random waypoint
    at up to ``sensor_max_speed`` m/s).  ``rng`` gives one key; each
    sensor's legs are the draws that key holds for its node id, so a
    trajectory is a function of (seed, node) alone.
    """
    leg_draws = KeyedStream(rng)
    for i, pos in enumerate(plan.actuator_positions):
        network.add_node(
            Node(i, NodeRole.ACTUATOR, StaticMobility(pos), ACTUATOR_RANGE)
        )
    base = plan.actuator_count
    for j, pos in enumerate(plan.sensor_positions):
        mobility = RandomWaypoint(
            start=pos,
            area_side=plan.area_side,
            max_speed=sensor_max_speed,
            rng=leg_draws.of(base + j),
        )
        network.add_node(
            Node(
                base + j,
                NodeRole.SENSOR,
                mobility,
                SENSOR_RANGE,
                battery_joules=battery_joules,
            )
        )


class WsanSystem(abc.ABC):
    """A complete WSAN data-collection system under evaluation."""

    name: str = "abstract"

    def __init__(
        self,
        network: WirelessNetwork,
        plan: DeploymentPlan,
        rng: random.Random,
    ) -> None:
        self.network = network
        self.plan = plan
        self.rng = rng

    # -- node-id conventions ------------------------------------------------

    @property
    def actuator_ids(self) -> List[int]:
        return list(range(self.plan.actuator_count))

    @property
    def sensor_ids(self) -> List[int]:
        base = self.plan.actuator_count
        return list(range(base, base + self.plan.sensor_count))

    def nearest_actuator(self, node_id: int) -> int:
        """The physically nearest actuator right now."""
        now = self.network.sim.now
        position = self.network.node(node_id).position(now)
        return min(
            self.actuator_ids,
            key=lambda a: self.network.node(a).position(now).distance_to(
                position
            ),
        )

    @staticmethod
    def _drop(
        packet: Packet,
        on_dropped: Optional[DroppedCallback],
        reason: str,
        cause: Optional[str] = None,
    ) -> None:
        """Abandon the packet under ``reason``, an entry of
        :data:`repro.telemetry.flight.DROP_REASONS` naming what gave up.
        ``cause`` is the hop failure that led here, if one did: a QoS
        verdict (:data:`~repro.net.network.QOS_VERDICTS`) names the drop
        instead, as it is why the hop failed."""
        if on_dropped is not None:
            on_dropped(packet, cause if cause in QOS_VERDICTS else reason)

    # -- lifecycle ----------------------------------------------------------

    @abc.abstractmethod
    def build(self) -> None:
        """Construct the topology.  Runs in the CONSTRUCTION energy
        phase; implementations charge all setup traffic here."""

    @abc.abstractmethod
    def start(self) -> None:
        """Start runtime protocols (maintenance, probing, ...)."""

    def stop(self) -> None:
        """Stop runtime protocols (default: nothing to stop)."""

    # -- data plane -----------------------------------------------------------

    @abc.abstractmethod
    def send_event(
        self,
        source_id: int,
        packet: Packet,
        on_delivered: Optional[DeliveredCallback] = None,
        on_dropped: Optional[DroppedCallback] = None,
    ) -> None:
        """Deliver an application event from ``source_id`` to an actuator."""

"""ReferSystem: the complete REFER stack behind the WsanSystem interface.

Wires together the embedding protocol (construction), the duty-cycle
manager and topology maintenance (runtime), and the Theorem-3.8
router (data plane).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Set

from repro.core.cell import EmbeddedCell
from repro.core.embedding import EmbeddingProtocol
from repro.core.ids import ReferId
from repro.core.maintenance import TopologyMaintenance
from repro.core.routing import ReferRouter
from repro.errors import ConfigError
from repro.net.network import WirelessNetwork
from repro.net.packet import Packet
from repro.wsan.deployment import DeploymentPlan
from repro.wsan.duty_cycle import DutyCycleManager
from repro.wsan.system import DeliveredCallback, DroppedCallback, WsanSystem


@dataclass(frozen=True)
class ReferConfig:
    """Tunables of the REFER stack."""

    degree: int = 2
    diameter: int = 3
    maintenance_period: float = 2.0

    def __post_init__(self) -> None:
        if self.degree < 2:
            raise ConfigError("REFER cells need degree >= 2")
        if self.maintenance_period <= 0:
            raise ConfigError("maintenance_period must be positive")


class ReferSystem(WsanSystem):
    """The paper's system: embedded Kautz cells + DHT actuator tier."""

    name = "REFER"

    def __init__(
        self,
        network: WirelessNetwork,
        plan: DeploymentPlan,
        rng: random.Random,
        config: ReferConfig = ReferConfig(),
    ) -> None:
        super().__init__(network, plan, rng)
        self.config = config
        self.cells: List[EmbeddedCell] = []
        self.router: Optional[ReferRouter] = None
        self.maintenance: Optional[TopologyMaintenance] = None
        self.duty: Optional[DutyCycleManager] = None
        self._member_sensors: Set[int] = set()

    # -- lifecycle ----------------------------------------------------------

    def build(self) -> None:
        protocol = EmbeddingProtocol(
            self.network,
            self.plan,
            self.rng,
            degree=self.config.degree,
            diameter=self.config.diameter,
        )
        self.cells = protocol.run()
        self.embedding_stats = protocol.stats
        actuators = set(self.actuator_ids)
        self._member_sensors = {
            node_id
            for cell in self.cells
            for node_id in cell.member_ids
            if node_id not in actuators
        }
        self.duty = DutyCycleManager(self.sensor_ids)
        for sensor_id in self._member_sensors:
            self.duty.activate(sensor_id)
        self.router = ReferRouter(self.network, self.plan, self.cells)
        self.maintenance = TopologyMaintenance(
            self.network,
            self.cells,
            self.duty,
            self.rng,
            is_member=self._member_sensors.__contains__,
            claim=self._member_sensors.add,
            release=self._member_sensors.discard,
            period=self.config.maintenance_period,
        )

    def start(self) -> None:
        if self.maintenance is None:
            raise ConfigError("build() must run before start()")
        self.maintenance.start(
            initial_delay=self.rng.uniform(0, self.config.maintenance_period)
        )

    def stop(self) -> None:
        if self.maintenance is not None:
            self.maintenance.stop()

    # -- data plane -----------------------------------------------------------

    def send_event(
        self,
        source_id: int,
        packet: Packet,
        on_delivered: Optional[DeliveredCallback] = None,
        on_dropped: Optional[DroppedCallback] = None,
    ) -> None:
        if self.router is None:
            raise ConfigError("build() must run before send_event()")
        self.router.send_to_actuator(
            source_id, packet, on_delivered, on_dropped
        )

    def send_to(
        self,
        source_id: int,
        dest: ReferId,
        packet: Packet,
        on_delivered: Optional[DeliveredCallback] = None,
        on_dropped: Optional[DroppedCallback] = None,
    ) -> None:
        """Address an arbitrary (CID, KID) — exercises the DHT tier."""
        if self.router is None:
            raise ConfigError("build() must run before send_to()")
        self.router.send_to(source_id, dest, packet, on_delivered, on_dropped)

    # -- introspection ----------------------------------------------------------

    @property
    def member_sensor_ids(self) -> Set[int]:
        """Sensors currently holding a KID in some cell."""
        return set(self._member_sensors)

    def id_of(self, node_id: int) -> Optional[ReferId]:
        """The (CID, KID) of a node, if it is currently embedded."""
        for cell in self.cells:
            if cell.holds(node_id):
                return ReferId(cell.cid, cell.kid_of(node_id))
        return None

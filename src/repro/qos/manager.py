"""QoS orchestration: builds and owns the three mechanisms.

:func:`~repro.experiments.runner.run_scenario` constructs one
:class:`QosManager` per run when ``ScenarioConfig.qos`` is present,
then installs the pieces: the scheduler onto
:attr:`WirelessNetwork.qos <repro.net.network.WirelessNetwork>`, the
backpressure state onto the REFER router (congestion-aware successor
choice), and the admission controller into the workload.
"""

from __future__ import annotations

from repro.net.network import WirelessNetwork
from repro.qos.admission import AdmissionController
from repro.qos.backpressure import BackpressureState
from repro.qos.mac import MacQosScheduler
from repro.qos.stats import QosStats
from repro.sim.core import Simulator

__all__ = ["QosManager"]


class QosManager:
    """One scenario's QoS stack (scheduler + backpressure + admission)."""

    def __init__(self, sim: Simulator, network: WirelessNetwork) -> None:
        self.stats = QosStats(registry=network.registry)
        self.state = BackpressureState(self.stats)
        self.scheduler = MacQosScheduler(
            sim, network.mac, self.state, self.stats
        )
        self.admission = AdmissionController(self.state, self.stats)

    def install(self, network: WirelessNetwork) -> None:
        """Put the scheduler between the network and its MAC."""
        network.qos = self.scheduler

"""Self-healing recovery: message-grounded detection and repair.

This package replaces the seed's omniscient failure handling with
distributed machinery that only acts on simulated message exchanges:

* :class:`~repro.recovery.detector.FailureDetector` — probe/reply
  heartbeats over the real medium/MAC with per-target adaptive
  timeouts and a suspicion counter;
* :class:`~repro.recovery.arq.ArqLink` — per-hop ACK/retransmit with
  bounded budget and exponential deterministic-jitter backoff, each
  hop forwarded once however many of its copies arrive;
* :class:`~repro.recovery.healer.CanHealer` — actuator-keyed CAN zone
  takeover and CID-key re-homing on condemnation, rejoin on recovery;
* :class:`~repro.recovery.orchestrator.RecoveryOrchestrator` — wires
  verdicts to maintenance/CAN repair and reports detection fidelity.

Enable it per scenario with ``ScenarioConfig(recovery=RecoveryConfig())``;
the default (``recovery=None``) leaves every pre-existing experiment
byte-identical to the seed.
"""

from repro.recovery.arq import ArqLink, ArqStats
from repro.recovery.config import RecoveryConfig
from repro.recovery.detector import (
    DetectorStats,
    FailureDetector,
    VerdictEvent,
)
from repro.recovery.healer import CanHealer, HealerStats
from repro.recovery.orchestrator import RecoveryOrchestrator, RecoveryReport

__all__ = [
    "ArqLink",
    "ArqStats",
    "CanHealer",
    "DetectorStats",
    "FailureDetector",
    "HealerStats",
    "RecoveryConfig",
    "RecoveryOrchestrator",
    "RecoveryReport",
    "VerdictEvent",
]

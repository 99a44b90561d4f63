"""QoS and overload robustness: graceful degradation, not collapse.

When offered load exceeds capacity the seed network buffers into
uselessness and every packet suffers equally.  This package makes the
degradation *predictable* (Xia et al., "QoS Challenges and
Opportunities in Wireless Sensor/Actuator Networks"):

* :class:`~repro.qos.classes.TrafficClass` — alarm / control / bulk
  marks carried on :class:`~repro.net.packet.Packet` with per-class
  relative deadlines;
* :class:`~repro.qos.mac.MacQosScheduler` — strict-priority, bounded
  per-class queues in front of :class:`~repro.net.mac.ContentionMac`
  with deadline-drop of expired frames;
* :class:`~repro.qos.admission.AdmissionController` — token-bucket
  policing at traffic sources (alarms always pass);
* :class:`~repro.qos.backpressure.BackpressureState` — high/low-water
  congestion marks that shed or detour bulk traffic one hop upstream
  and throttle source buckets.

Enable it per scenario with ``ScenarioConfig(qos=QosConfig())`` and
drive overload with ``ScenarioConfig(bursty=BurstyConfig(...))``; the
defaults (both ``None``) leave every pre-existing experiment
byte-identical.
"""

from repro.qos.admission import AdmissionController, TokenBucket
from repro.qos.backpressure import BackpressureState
from repro.qos.classes import PRIORITY_ORDER, TrafficClass, expiry_of
from repro.qos.config import BurstyConfig, QosConfig
from repro.qos.mac import MacQosScheduler
from repro.qos.manager import QosManager
from repro.qos.queue import PriorityFrameQueue, QueuedFrame
from repro.qos.stats import QosStats

__all__ = [
    "AdmissionController",
    "BackpressureState",
    "BurstyConfig",
    "MacQosScheduler",
    "PRIORITY_ORDER",
    "PriorityFrameQueue",
    "QosConfig",
    "QosManager",
    "QosStats",
    "QueuedFrame",
    "TokenBucket",
    "TrafficClass",
    "expiry_of",
]

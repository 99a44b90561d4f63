"""Message-grounded failure detection over the simulated radio.

The :class:`FailureDetector` replaces the seed's omniscient liveness
checks (reading ``node.usable`` off the node object) with probe/reply
heartbeats exchanged over the real ``WirelessMedium`` + contention
MAC.  Every detector round, each watch pair ``(monitor, target)``
drawn from the installed provider sends one PROBE frame; the target
answers with a reply carrying its *self-reported* battery fraction.

Liveness judgement is purely message-grounded:

* a reply within the per-target timeout resets the target's suspicion
  counter (and absolves a previously condemned target);
* a miss — the data frame failed at the MAC, the reply frame failed,
  or no reply arrived before the timeout — increments the counter;
* ``suspicion_threshold`` consecutive misses condemn the target.

Timeouts are adaptive per target (Jacobson-style: EWMA of observed
probe RTT plus a variance margin), with a fixed-timeout strawman mode
(``adaptive_timeout=False``) for fidelity experiments.  Probe and
reply energy is charged to the ``probe`` ledger kind — the same
topology-maintenance budget line the seed's maintenance probes used.

Ground truth (``node.usable``, chaos fail times) is consulted **only**
for instrumentation, through the injectable audit hooks: condemning a
live node bumps the false-positive counter, and the chaos fail clock
yields time-to-detect samples.  Decisions never read it.  The one
deliberate exception is the *monitor's own* liveness at miss time: a
crashed monitor records nothing, modelling that its pending timers
died with it (a node may always consult its own state).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.net.network import WirelessNetwork
from repro.net.packet import Packet, PacketKind
from repro.recovery.config import RecoveryConfig
from repro.sim.process import PeriodicProcess
from repro.telemetry.registry import Registry
from repro.telemetry.views import StatsView, counter_field
from repro.util.stats import RunningStat

__all__ = ["DetectorStats", "FailureDetector", "VerdictEvent"]

#: Provider of this round's watch pairs ``(monitor_id, target_id)``.
PairsProvider = Callable[[], Sequence[Tuple[int, int]]]
#: Listener notified of every condemn/absolve verdict.
VerdictListener = Callable[["VerdictEvent"], None]

_PENDING, _REPLIED, _MISSED = 0, 1, 2

# Jacobson/Karels RTT estimator gains (TCP's classic values).
_SRTT_GAIN = 0.125
_RTTVAR_GAIN = 0.25
#: Floor for the adaptive timeout (absorbs scheduling noise), seconds.
MIN_TIMEOUT = 0.05
#: Adaptive timeout = srtt + ``TIMEOUT_MARGIN`` * rttvar.
TIMEOUT_MARGIN = 4.0


@dataclass(frozen=True)
class VerdictEvent:
    """One liveness verdict, stamped with the sim clock."""

    time: float
    node_id: int
    kind: str                    # "condemn" | "absolve"


class DetectorStats(StatsView):
    """Counters and latency aggregates of one detector instance
    (``detector_*`` registry metrics)."""

    _group = "detector"

    rounds = counter_field("heartbeat rounds executed")
    probes_sent = counter_field("PROBE frames sent")
    replies = counter_field("replies within the timeout")
    late_replies = counter_field("replies after the timeout fired")
    misses = counter_field("probe misses")
    condemnations = counter_field("targets condemned")
    absolutions = counter_field("condemned targets absolved")
    #: Condemnations whose target the audit hook saw alive (FP).
    false_positives = counter_field("condemnations of live targets")
    #: Condemnations attributable to a recorded fault (via the audit
    #: clock); each contributes one time-to-detect sample.
    true_detections = counter_field("condemnations matching real faults")

    def __init__(self, registry: Optional[Registry] = None) -> None:
        super().__init__(registry)
        #: Sim-seconds from fault injection to condemnation.
        self.detection_latency = RunningStat()

    @property
    def false_positive_rate(self) -> float:
        """False positives per condemnation (0 when none condemned)."""
        if not self.condemnations:
            return 0.0
        return self.false_positives / self.condemnations


class _TargetState:
    """Per-target detector memory (RTT estimate, suspicion, verdict)."""

    __slots__ = ("srtt", "rttvar", "misses", "condemned", "battery")

    def __init__(self) -> None:
        self.srtt: Optional[float] = None
        self.rttvar: float = 0.0
        self.misses: int = 0
        self.condemned: bool = False
        self.battery: Optional[float] = None


class FailureDetector:
    """Heartbeat rounds over watch pairs, with adaptive timeouts."""

    def __init__(
        self,
        network: WirelessNetwork,
        rng: random.Random,
        config: RecoveryConfig,
        pairs: PairsProvider,
        audit_usable: Optional[Callable[[int], bool]] = None,
        audit_clock: Optional[Callable[[int], Optional[float]]] = None,
    ) -> None:
        """``pairs`` supplies each round's (monitor, target) watch list;
        ``audit_usable``/``audit_clock`` are instrumentation-only hooks
        (ground truth for FP counting and time-to-detect, never used in
        verdicts)."""
        self._network = network
        self._config = config
        self._pairs = pairs
        self._audit_usable = audit_usable
        self._audit_clock = audit_clock
        self.stats = DetectorStats(registry=network.registry)
        self.verdicts: List[VerdictEvent] = []
        self._states: Dict[int, _TargetState] = {}
        self._watched: set = set()
        self._listeners: List[VerdictListener] = []
        self._process = PeriodicProcess(
            network.sim,
            period=config.detector_period,
            action=self._round,
            jitter=config.detector_period / 10.0,
            rng=rng,
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self, initial_delay: float = 0.0) -> None:
        self._process.start(initial_delay)

    def stop(self) -> None:
        self._process.stop()

    def add_listener(self, listener: VerdictListener) -> None:
        """Register a callback fired on every condemn/absolve verdict."""
        self._listeners.append(listener)

    # -- queries (the verdict API consumers act on) ------------------------

    def condemned(self, node_id: int) -> bool:
        """Whether the detector currently believes ``node_id`` is dead."""
        state = self._states.get(node_id)
        return state.condemned if state is not None else False

    def reported_battery(self, node_id: int) -> float:
        """The target's last self-reported battery fraction (1.0 before
        any reply has been heard)."""
        state = self._states.get(node_id)
        if state is None or state.battery is None:
            return 1.0
        return state.battery

    def was_watched(self, node_id: int) -> bool:
        """Whether ``node_id`` has ever been a probe target."""
        return node_id in self._watched

    def timeout_of(self, node_id: int) -> float:
        """The probe timeout currently applied to ``node_id``."""
        return self._timeout(self._states.get(node_id))

    def forget(self, node_id: int) -> None:
        """Drop all state for a node that left the monitored set.

        Called when maintenance replaces a vertex: the departed node is
        no longer anyone's responsibility, and if it later rejoins it
        deserves a fresh suspicion history.
        """
        self._states.pop(node_id, None)

    # -- heartbeat machinery ----------------------------------------------

    def _round(self) -> None:
        self.stats.rounds += 1
        seen: set = set()
        for monitor, target in self._pairs():
            if monitor == target or (monitor, target) in seen:
                continue
            seen.add((monitor, target))
            self._probe(monitor, target)

    def _state(self, node_id: int) -> _TargetState:
        state = self._states.get(node_id)
        if state is None:
            state = _TargetState()
            self._states[node_id] = state
        return state

    def _timeout(self, state: Optional[_TargetState]) -> float:
        cfg = self._config
        if not cfg.adaptive_timeout:
            return cfg.fixed_timeout
        if state is None or state.srtt is None:
            # No sample yet: start conservative, adapt downward later.
            return max(MIN_TIMEOUT, cfg.fixed_timeout)
        return max(MIN_TIMEOUT, state.srtt + TIMEOUT_MARGIN * state.rttvar)

    def _probe(self, monitor: int, target: int) -> None:
        sim = self._network.sim
        state = self._state(target)
        self._watched.add(target)
        sent_at = sim.now
        # 0 = pending, 1 = replied, 2 = missed; a one-slot box shared
        # by the three async outcomes of this probe.
        outcome = [_PENDING]
        probe = Packet(
            kind=PacketKind.PROBE,
            size_bytes=self._config.probe_bytes,
            source=monitor,
            destination=target,
            created_at=sent_at,
        )
        self.stats.probes_sent += 1

        def probe_failed(pkt: Packet, at: int) -> None:
            self._miss(monitor, target, outcome)

        def probe_arrived(pkt: Packet) -> None:
            # The target answers with its self-reported battery level —
            # local state of the responding node, not ground truth about
            # anyone else.
            battery = self._network.node(target).battery_fraction
            reply = Packet(
                kind=PacketKind.PROBE,
                size_bytes=self._config.probe_bytes,
                source=target,
                destination=monitor,
                created_at=sim.now,
            )

            def reply_arrived(rpkt: Packet) -> None:
                self._reply(target, sent_at, battery, outcome)

            def reply_failed(rpkt: Packet, at: int) -> None:
                self._miss(monitor, target, outcome)

            self._network.send(
                target,
                monitor,
                reply,
                on_delivered=reply_arrived,
                on_failed=reply_failed,
                deliver_to_handler=False,
            )

        self._network.send(
            monitor,
            target,
            probe,
            on_delivered=probe_arrived,
            on_failed=probe_failed,
            deliver_to_handler=False,
        )
        timeout = self._timeout(state)

        def deadline() -> None:
            if outcome[0] == _PENDING:
                self._miss(monitor, target, outcome)

        sim.schedule(timeout, deadline)

    def _miss(self, monitor: int, target: int, outcome: List[int]) -> None:
        if outcome[0] != _PENDING:
            return
        outcome[0] = _MISSED
        if not self._network.node(monitor).usable:
            # A crashed monitor's pending timers die with it: it records
            # nothing.  (A node may consult its *own* state; this is not
            # a ground-truth read about the target.)
            return
        state = self._state(target)
        state.misses += 1
        self.stats.misses += 1
        if (
            state.misses >= self._config.suspicion_threshold
            and not state.condemned
        ):
            self._condemn(target, state)

    def _reply(
        self,
        target: int,
        sent_at: float,
        battery: float,
        outcome: List[int],
    ) -> None:
        if outcome[0] == _REPLIED:
            return
        late = outcome[0] == _MISSED
        outcome[0] = _REPLIED
        now = self._network.sim.now
        state = self._state(target)
        state.battery = battery
        sample = max(0.0, now - sent_at)
        if state.srtt is None:
            state.srtt = sample
            state.rttvar = sample / 2.0
        else:
            state.rttvar = (
                (1.0 - _RTTVAR_GAIN) * state.rttvar
                + _RTTVAR_GAIN * abs(state.srtt - sample)
            )
            state.srtt = (
                (1.0 - _SRTT_GAIN) * state.srtt + _SRTT_GAIN * sample
            )
        if late:
            # A late reply proves liveness (absolve below) and trains
            # the RTT estimate, but the round already failed its
            # deadline: the consecutive-miss counter stands.  This is
            # what makes a too-short fixed timeout visibly bad — it
            # flaps condemn/absolve instead of silently self-curing.
            self.stats.late_replies += 1
        else:
            state.misses = 0
            self.stats.replies += 1
        if state.condemned:
            self._absolve(target, state)

    # -- verdicts ----------------------------------------------------------

    def _condemn(self, target: int, state: _TargetState) -> None:
        state.condemned = True
        now = self._network.sim.now
        self.stats.condemnations += 1
        if self._audit_usable is not None and self._audit_usable(target):
            self.stats.false_positives += 1
        if self._audit_clock is not None:
            failed_at = self._audit_clock(target)
            if failed_at is not None:
                self.stats.true_detections += 1
                self.stats.detection_latency.add(max(0.0, now - failed_at))
        self._emit(VerdictEvent(time=now, node_id=target, kind="condemn"))

    def _absolve(self, target: int, state: _TargetState) -> None:
        state.condemned = False
        self.stats.absolutions += 1
        self._emit(
            VerdictEvent(
                time=self._network.sim.now, node_id=target, kind="absolve"
            )
        )

    def _emit(self, event: VerdictEvent) -> None:
        self.verdicts.append(event)
        for listener in self._listeners:
            listener(event)

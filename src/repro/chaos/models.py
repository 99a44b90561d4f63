"""Composable, deterministic fault models (the chaos library).

Every scheduled kind runs on :class:`ChaosModel`'s one round loop and
is only its ``_round``: whom it picks and how the damage ends.  Every
model takes its validated :class:`~repro.chaos.spec.FaultSpec` as its
parameters.  Timing flows through the simulation clock and randomness
through an injected ``random.Random`` (one ``RngStreams`` stream per
model; the link fades, which advance when queried rather than on a
schedule, draw from it by key), so a master seed reproduces the exact
fault schedule bit-for-bit.  Models record their actions as
:class:`FaultEvent`\\ s; the :class:`~repro.chaos.probe.ResilienceProbe`
keys its recovery-time analysis on that log.

The library generalises the paper's Section IV-B crash rotation
(:class:`CrashRotationFault`) with the failure modes related
WSAN work stresses: permanent attrition, actuator outages, regional
blackouts, battery-depletion attacks, and bursty Gilbert-Elliott link
loss.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, Container, Dict, List, Optional, Sequence,
    Set, Tuple,
)

from repro.net.network import WirelessNetwork
from repro.sim.events import Handle
from repro.sim.process import PeriodicProcess
from repro.util.geometry import Point
from repro.util.rng import KeyedStream

if TYPE_CHECKING:
    from repro.chaos.spec import FaultSpec


@dataclass(frozen=True)
class FaultEvent:
    """One recorded chaos action, stamped with the sim clock."""

    time: float
    model: str
    kind: str                    # "inject" | "recover"
    nodes: Tuple[int, ...] = ()


class ChaosModel:
    """The round loop and liveness bookkeeping every fault model shares.

    :meth:`start` arms one :class:`PeriodicProcess` whose first round
    fires ``spec.start`` seconds later and then every ``spec.period``;
    each firing runs the kind's ``_round`` and stops the loop after
    ``spec.rounds`` rounds (0 = unbounded).  ``population`` returns the
    ids :meth:`_sample` picks ``spec.count`` of, read each round so it
    may shift under maintenance.  Liveness changes only through
    :meth:`_fail_nodes` / :meth:`_recover_nodes`, which keep the event
    log and per-node fail times coherent.  Compose models over disjoint
    node populations; two models breaking the same node would race each
    other's recovery.
    """

    name: str = "chaos"

    def __init__(
        self,
        network: WirelessNetwork,
        rng: random.Random,
        spec: FaultSpec,
        population: Optional[Callable[[], Sequence[int]]] = None,
    ) -> None:
        self.network = network
        self.spec = spec
        self.events: List[FaultEvent] = []
        self.rounds = 0
        self._rng = rng
        self._population = population
        self._fail_times: Dict[int, float] = {}
        #: Pending outage ends by their seq.
        self._outages: Dict[int, Handle] = {}
        self._process: Optional[PeriodicProcess] = None

    # -- queries -------------------------------------------------------------

    def fail_time_of(self, node_id: int) -> Optional[float]:
        """When this model failed ``node_id`` (None if it did not)."""
        return self._fail_times.get(node_id)

    def active(self) -> bool:
        """Whether the model is degrading the network right now."""
        return bool(self._fail_times)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Arm the model; its first round fires ``spec.start`` from now."""
        if self._process is None:
            self._process = PeriodicProcess(
                self.network.sim, period=self.spec.period, action=self._tick
            )
            self._process.start(self.spec.start)

    def stop(self, recover: bool = True) -> None:
        """Disarm the model; ``recover=False`` leaves damage in place.

        The round process (it holds :meth:`_tick`) and the population
        (it reads the run's system, which may hold this model's
        coordinator) are dropped, so neither leaves a cycle."""
        if self._process is not None:
            self._process.stop()
            self._process = None
        self._population = None
        for outage in self._outages.values():
            self.network.sim.cancel(outage)
        self._outages.clear()
        if recover:
            self._recover_nodes(sorted(self._fail_times))

    def _tick(self) -> None:
        self._round()
        self.rounds += 1
        if self.spec.rounds and self.rounds >= self.spec.rounds:
            self._process.stop()

    def _round(self) -> None:
        """One round: whom the kind picks and how their damage ends."""
        raise NotImplementedError

    # -- helpers -------------------------------------------------------------

    def _sample(self, taken: Container[int]) -> List[int]:
        """``spec.count`` ids of the population outside ``taken``
        (all of them, if fewer remain), drawn from the model's stream."""
        pool = [n for n in self._population() if n not in taken]
        want = min(self.spec.count, len(pool))
        return self._rng.sample(pool, want) if want else []

    def _fail_for_duration(self, node_ids: Sequence[int]) -> None:
        """Fail ``node_ids`` and recover them ``spec.duration`` later,
        unless :meth:`stop` cancels the recovery first."""
        injected = self._fail_nodes(node_ids)
        if not injected:
            return
        sim = self.network.sim
        # ``end`` finds its entry by seq, not by its handle: a handle
        # holds ``end``, and the two would be a cycle.
        seq = sim.reserve()

        def end() -> None:
            del self._outages[seq]
            self._recover_nodes(injected)

        self._outages[seq] = sim.schedule_reserved(
            sim.now + self.spec.duration, seq, end
        )

    def _record(self, kind: str, nodes: Sequence[int]) -> None:
        self.events.append(
            FaultEvent(
                time=self.network.sim.now,
                model=self.name,
                kind=kind,
                nodes=tuple(nodes),
            )
        )

    def _fail_nodes(self, node_ids: Sequence[int]) -> List[int]:
        now = self.network.sim.now
        injected: List[int] = []
        for node_id in node_ids:
            if node_id in self._fail_times:
                continue
            self.network.fail_node(node_id)
            self._fail_times[node_id] = now
            injected.append(node_id)
        if injected:
            self._record("inject", injected)
        return injected

    def _recover_nodes(self, node_ids: Sequence[int]) -> None:
        recovered: List[int] = []
        for node_id in node_ids:
            if self._fail_times.pop(node_id, None) is None:
                continue
            self.network.recover_node(node_id)
            recovered.append(node_id)
        if recovered:
            self._record("recover", recovered)


class CrashRotationFault(ChaosModel):
    """The paper's Section IV-B schedule: rotate a broken-down set.

    Every round the previous round's nodes recover and a fresh sample
    of ``spec.count`` eligible nodes fails.  The whole previous set
    recovers *before* sampling, so every round samples from the full
    eligible population: the RNG draw sequence is the seed fault
    injector's, which keeps Figs 6-7 bit-exact.  After the last of
    ``spec.rounds`` rounds the final set stays down until teardown.
    """

    name = "crash-rotation"

    def _round(self) -> None:
        self._recover_nodes(sorted(self._fail_times))
        self._fail_nodes(self._sample(self._fail_times))


class PermanentCrashFault(ChaosModel):
    """Crash-without-recovery: cumulative attrition of the population.

    Each round fails ``spec.count`` fresh eligible nodes and never
    recovers them (until ``stop(recover=True)`` at teardown), modelling
    hardware death rather than transient outage.
    """

    name = "permanent-crash"

    def _round(self) -> None:
        self._fail_nodes(self._sample(self._fail_times))


class ActuatorOutageFault(ChaosModel):
    """Actuator-targeted failures: break the resource-rich tier.

    Each round fails ``spec.count`` actuators for ``spec.duration``
    seconds, then recovers them — stressing the CAN tier's detours and
    every baseline's collection point.
    """

    name = "actuator-outage"

    def _round(self) -> None:
        self._fail_for_duration(self._sample(self._fail_times))


class RegionalBlackoutFault(ChaosModel):
    """Regional failure: every node inside a disc fails for a window.

    Models the correlated outages of self-recovery WSAN work (fire,
    flood, jamming): at each round a disc of ``spec.radius`` metres,
    centred uniformly in the ``area_side`` square, takes down every
    node currently inside it for ``spec.duration`` seconds.  Partition
    stress for cells and the CAN tier at once.
    """

    name = "regional-blackout"

    def __init__(
        self,
        network: WirelessNetwork,
        rng: random.Random,
        spec: FaultSpec,
        area_side: float,
    ) -> None:
        super().__init__(network, rng, spec, network.medium.node_ids)
        self._area_side = area_side
        self.last_center: Optional[Point] = None

    def _round(self) -> None:
        now = self.network.sim.now
        center = Point(
            self._rng.uniform(0.0, self._area_side),
            self._rng.uniform(0.0, self._area_side),
        )
        self.last_center = center
        self._fail_for_duration([
            node_id
            for node_id in self._population()
            if self.network.node(node_id).position(now).distance_to(center)
            <= self.spec.radius
        ])


#: Joules of meter a battery-depletion attack gives an unmetered node.
DEFAULT_CAPACITY = 1_000.0
#: Fraction of capacity a battery-depletion attack leaves a node.
TARGET_FRACTION = 0.02


class BatteryDepletionFault(ChaosModel):
    """Battery-depletion attack: drain nodes below the maintenance bar.

    Each round drains ``spec.count`` eligible nodes down to
    :data:`TARGET_FRACTION` of capacity — below REFER's maintenance
    battery threshold, forcing replacements without ever marking the
    node failed.  Unmetered nodes (``battery_joules is None``) are
    given :data:`DEFAULT_CAPACITY` joules of meter first, so the attack
    works in the (default) unmetered experiments too.  ``stop`` does
    not undo the damage: energy does not come back.
    """

    name = "battery-depletion"

    def __init__(
        self,
        network: WirelessNetwork,
        rng: random.Random,
        spec: FaultSpec,
        population: Callable[[], Sequence[int]],
    ) -> None:
        super().__init__(network, rng, spec, population)
        self.drained: Set[int] = set()

    def active(self) -> bool:
        # The attack's damage persists: drained batteries stay drained.
        return bool(self.drained)

    def _round(self) -> None:
        chosen = self._sample(self.drained)
        for node_id in chosen:
            node = self.network.node(node_id)
            if node.battery_joules is None:
                node.battery_joules = DEFAULT_CAPACITY
            floor = node.battery_joules * (1.0 - TARGET_FRACTION)
            node.consumed_joules = max(node.consumed_joules, floor)
            self.drained.add(node_id)
        if chosen:
            self._record("inject", chosen)


#: Factor a BAD link's sensed signal margin is scaled by (a deep fade).
BAD_QUALITY = 0.0


class GilbertElliottLinkFault(ChaosModel):
    """Bursty link loss: a two-state Gilbert-Elliott process per link.

    Installed into :meth:`WirelessMedium.set_link_fault` at
    ``spec.start``, the model holds one GOOD/BAD chain per undirected
    link with exponential sojourn times (means ``spec.mean_good`` /
    ``spec.mean_bad`` seconds).  It runs no rounds.  While a link is
    BAD, frames on it are lost (``can_transmit`` gates shut) and the
    sensed signal margin is scaled by :data:`BAD_QUALITY` — so REFER's
    maintenance sees exactly the "link about to break" signal a deep
    fade produces.  Sojourn ``k`` of link ``(a, b)`` is draw
    ``((a, b), k)`` of the model's keyed stream, so a link's state is
    a function of ``(seed, link, now)``: chains are walked lazily, but
    which links are asked about, when and in what order moves nothing
    (a look-back re-walks the chain from the epoch).  Every link is
    degraded.
    """

    name = "link-burst"

    def __init__(
        self, network: WirelessNetwork, rng: random.Random, spec: FaultSpec
    ) -> None:
        super().__init__(network, rng, spec)
        self._draws = KeyedStream(rng)
        # Read off the spec once: ``link_up`` is on the medium's hot path.
        self._mean_good = spec.mean_good
        self._mean_bad = spec.mean_bad
        self._installed = False
        self._epoch = 0.0
        # link key -> [in_good_state, state_start, state_end, sojourn k]
        self._chains: Dict[Tuple[int, int], List] = {}

    def active(self) -> bool:
        return self._installed

    def start(self) -> None:
        if self._installed:
            return
        self._epoch = self.network.sim.now + self.spec.start
        self.network.medium.set_link_fault(self)
        self._installed = True
        self._record("inject", [])

    def stop(self, recover: bool = True) -> None:
        if not self._installed:
            return
        if self.network.medium.link_fault is self:
            self.network.medium.set_link_fault(None)
        self._installed = False
        self._record("recover", [])

    # -- medium LinkFault hooks ---------------------------------------------

    def link_up(self, src_id: int, dst_id: int, now: float) -> bool:
        """Whether the link's chain is in its GOOD state at ``now``."""
        if now < self._epoch:
            return True
        key = (
            (src_id, dst_id) if src_id < dst_id else (dst_id, src_id)
        )
        chain = self._chains.get(key)
        if chain is None or now < chain[1]:
            # Every link starts GOOD at the epoch, on sojourn 0.
            chain = self._chains[key] = [False, self._epoch, self._epoch, -1]
        while chain[2] <= now:
            chain[0] = not chain[0]
            chain[3] += 1
            mean = self._mean_good if chain[0] else self._mean_bad
            # An exponential sojourn, by inversion of the keyed draw.
            chain[1] = chain[2]
            chain[2] -= mean * math.log(1.0 - self._draws.draw(key, chain[3]))
        return chain[0]

    def quality_factor(self, src_id: int, dst_id: int, now: float) -> float:
        if self.link_up(src_id, dst_id, now):
            return 1.0
        return BAD_QUALITY

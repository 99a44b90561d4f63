"""Composable, deterministic fault models (the chaos library).

Every model shares one scheduler interface — :class:`ChaosModel` —
driven exclusively by the simulation clock and an injected
``random.Random`` (one ``RngStreams`` stream per model; the link
fades, which advance when queried rather than on a schedule, draw from
it by key), so a master seed reproduces the exact fault schedule
bit-for-bit.  Models record
their actions as :class:`FaultEvent`\\ s; the
:class:`~repro.chaos.probe.ResilienceProbe` keys its recovery-time
analysis on that log.

The library generalises the paper's Section IV-B crash rotation
(:class:`CrashRotationFault`) with the failure modes related
WSAN work stresses: permanent attrition, actuator outages, regional
blackouts, battery-depletion attacks, and bursty Gilbert-Elliott link
loss.
"""

from __future__ import annotations

import abc
import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigError
from repro.net.network import WirelessNetwork
from repro.sim.process import PeriodicProcess
from repro.util.geometry import Point
from repro.util.rng import KeyedStream

#: ``count`` callables draw the number of targets per round; ``eligible``
#: callables return the ids a model may touch (evaluated per round so
#: populations may shift under other models).
CountDraw = Callable[[], int]
EligibleDraw = Callable[[], Sequence[int]]


@dataclass(frozen=True)
class FaultEvent:
    """One recorded chaos action, stamped with the sim clock."""

    time: float
    model: str
    kind: str                    # "inject" | "recover"
    nodes: Tuple[int, ...] = ()


class ChaosModel(abc.ABC):
    """Base scheduler interface every fault model implements.

    Subclasses schedule their behaviour with :class:`PeriodicProcess`
    or ``sim.schedule`` and mutate liveness only through the
    :meth:`_fail_nodes` / :meth:`_recover_nodes` helpers, which keep
    the event log and per-node fail times coherent.  Compose models
    over disjoint node populations; two models breaking the same node
    would race each other's recovery.
    """

    name: str = "chaos"

    def __init__(self, network: WirelessNetwork) -> None:
        self.network = network
        self.events: List[FaultEvent] = []
        self._fail_times: Dict[int, float] = {}

    # -- queries -------------------------------------------------------------

    @property
    def faulty_nodes(self) -> Set[int]:
        """Nodes this model currently holds in the failed state."""
        return set(self._fail_times)

    def fail_time_of(self, node_id: int) -> Optional[float]:
        """When this model failed ``node_id`` (None if it did not)."""
        return self._fail_times.get(node_id)

    def active(self) -> bool:
        """Whether the model is degrading the network right now."""
        return bool(self._fail_times)

    # -- lifecycle -----------------------------------------------------------

    @abc.abstractmethod
    def start(self, initial_delay: float = 0.0) -> None:
        """Arm the model; first action after ``initial_delay`` seconds."""

    def stop(self, recover: bool = True) -> None:
        """Disarm the model; ``recover=False`` leaves damage in place."""
        if recover:
            self._recover_nodes(sorted(self._fail_times))

    # -- helpers -------------------------------------------------------------

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

    Every ``period`` seconds the previous round's nodes recover and a
    fresh sample of ``count()`` eligible nodes fails.  The whole
    previous set recovers *before* sampling, so every round samples
    from the full eligible population: the RNG draw sequence is the
    seed fault injector's, which keeps Figs 6-7 bit-exact.
    """

    name = "crash-rotation"

    def __init__(
        self,
        network: WirelessNetwork,
        rng: random.Random,
        count: CountDraw,
        eligible: EligibleDraw,
        period: float = 10.0,
    ) -> None:
        super().__init__(network)
        self._rng = rng
        self._count = count
        self._eligible = eligible
        self.rounds = 0
        self._process = PeriodicProcess(
            network.sim, period=period, action=self._rotate
        )

    def start(self, initial_delay: float = 0.0) -> None:
        self._process.start(initial_delay)

    def stop(self, recover: bool = True) -> None:
        self._process.stop()
        super().stop(recover)

    def _rotate(self) -> None:
        self._recover_nodes(sorted(self._fail_times))
        population = [
            n for n in self._eligible() if n not in self._fail_times
        ]
        want = min(self._count(), len(population))
        chosen = self._rng.sample(population, want) if want else []
        self._fail_nodes(chosen)
        self.rounds += 1


class PermanentCrashFault(ChaosModel):
    """Crash-without-recovery: cumulative attrition of the population.

    Each round fails ``count()`` fresh eligible nodes and never
    recovers them (until ``stop(recover=True)`` at teardown), modelling
    hardware death rather than transient outage.  ``rounds`` bounds the
    number of bursts (0 = unbounded).
    """

    name = "permanent-crash"

    def __init__(
        self,
        network: WirelessNetwork,
        rng: random.Random,
        count: CountDraw,
        eligible: EligibleDraw,
        period: float = 10.0,
        rounds: int = 0,
    ) -> None:
        super().__init__(network)
        self._rng = rng
        self._count = count
        self._eligible = eligible
        self._max_rounds = rounds
        self.rounds = 0
        self._process = PeriodicProcess(
            network.sim, period=period, action=self._burst
        )

    def start(self, initial_delay: float = 0.0) -> None:
        self._process.start(initial_delay)

    def stop(self, recover: bool = True) -> None:
        self._process.stop()
        super().stop(recover)

    def _burst(self) -> None:
        population = [
            n for n in self._eligible() if n not in self._fail_times
        ]
        want = min(self._count(), len(population))
        chosen = self._rng.sample(population, want) if want else []
        self._fail_nodes(chosen)
        self.rounds += 1
        if self._max_rounds and self.rounds >= self._max_rounds:
            self._process.stop()


class ActuatorOutageFault(ChaosModel):
    """Actuator-targeted failures: break the resource-rich tier.

    Each round fails ``count()`` actuators for ``duration`` seconds,
    then recovers them — stressing the CAN tier's detours and every
    baseline's collection point.  ``rounds`` bounds bursts (0 =
    unbounded).
    """

    name = "actuator-outage"

    def __init__(
        self,
        network: WirelessNetwork,
        rng: random.Random,
        count: CountDraw,
        actuators: EligibleDraw,
        period: float = 20.0,
        duration: float = 8.0,
        rounds: int = 0,
    ) -> None:
        if duration >= period:
            raise ConfigError("outage duration must be below the period")
        super().__init__(network)
        self._rng = rng
        self._count = count
        self._actuators = actuators
        self._duration = duration
        self._max_rounds = rounds
        self.rounds = 0
        self._process = PeriodicProcess(
            network.sim, period=period, action=self._burst
        )

    def start(self, initial_delay: float = 0.0) -> None:
        self._process.start(initial_delay)

    def stop(self, recover: bool = True) -> None:
        self._process.stop()
        super().stop(recover)

    def _burst(self) -> None:
        population = [
            a for a in self._actuators() if a not in self._fail_times
        ]
        want = min(self._count(), len(population))
        chosen = self._rng.sample(population, want) if want else []
        injected = self._fail_nodes(chosen)
        if injected:
            self.network.sim.schedule(
                self._duration, lambda: self._recover_nodes(injected)
            )
        self.rounds += 1
        if self._max_rounds and self.rounds >= self._max_rounds:
            self._process.stop()


class RegionalBlackoutFault(ChaosModel):
    """Regional failure: every node inside a disc fails for a window.

    Models the correlated outages of self-recovery WSAN work (fire,
    flood, jamming): at each round a disc of ``radius`` metres — at
    ``center``, or drawn uniformly in the area when ``center`` is None
    — takes down every node currently inside it for ``duration``
    seconds.  Partition stress for cells and the CAN tier at once.
    """

    name = "regional-blackout"

    def __init__(
        self,
        network: WirelessNetwork,
        rng: random.Random,
        area_side: float,
        radius: float,
        duration: float = 8.0,
        period: float = 20.0,
        rounds: int = 1,
        center: Optional[Point] = None,
        eligible: Optional[EligibleDraw] = None,
    ) -> None:
        if radius <= 0:
            raise ConfigError("blackout radius must be positive")
        if duration >= period:
            raise ConfigError("blackout duration must be below the period")
        super().__init__(network)
        self._rng = rng
        self._area_side = area_side
        self._radius = radius
        self._duration = duration
        self._center = center
        self._eligible = eligible
        self._max_rounds = rounds
        self.rounds = 0
        self.last_center: Optional[Point] = None
        self._process = PeriodicProcess(
            network.sim, period=period, action=self._blackout
        )

    def start(self, initial_delay: float = 0.0) -> None:
        self._process.start(initial_delay)

    def stop(self, recover: bool = True) -> None:
        self._process.stop()
        super().stop(recover)

    def _blackout(self) -> None:
        now = self.network.sim.now
        if self._center is not None:
            center = self._center
        else:
            center = Point(
                self._rng.uniform(0.0, self._area_side),
                self._rng.uniform(0.0, self._area_side),
            )
        self.last_center = center
        if self._eligible is not None:
            population = list(self._eligible())
        else:
            population = self.network.medium.node_ids()
        victims = [
            node_id
            for node_id in population
            if node_id not in self._fail_times
            and self.network.node(node_id).position(now).distance_to(center)
            <= self._radius
        ]
        injected = self._fail_nodes(victims)
        if injected:
            self.network.sim.schedule(
                self._duration, lambda: self._recover_nodes(injected)
            )
        self.rounds += 1
        if self._max_rounds and self.rounds >= self._max_rounds:
            self._process.stop()


#: Joules of meter a battery-depletion attack gives an unmetered node.
DEFAULT_CAPACITY = 1_000.0


class BatteryDepletionFault(ChaosModel):
    """Battery-depletion attack: drain nodes below the maintenance bar.

    Each round drains ``count()`` eligible nodes down to
    ``target_fraction`` of capacity — below REFER's maintenance
    battery threshold, forcing replacements without ever marking the
    node failed.  Unmetered nodes (``battery_joules is None``) are
    given :data:`DEFAULT_CAPACITY` joules of meter first, so the attack
    works in the (default) unmetered experiments too.
    """

    name = "battery-depletion"

    def __init__(
        self,
        network: WirelessNetwork,
        rng: random.Random,
        count: CountDraw,
        eligible: EligibleDraw,
        period: float = 20.0,
        rounds: int = 1,
        target_fraction: float = 0.02,
    ) -> None:
        if not 0.0 <= target_fraction < 1.0:
            raise ConfigError("target_fraction must be in [0, 1)")
        super().__init__(network)
        self._rng = rng
        self._count = count
        self._eligible = eligible
        self._target_fraction = target_fraction
        self._max_rounds = rounds
        self.rounds = 0
        self.drained: Set[int] = set()
        self._process = PeriodicProcess(
            network.sim, period=period, action=self._drain_round
        )

    def active(self) -> bool:
        # The attack's damage persists: drained batteries stay drained.
        return bool(self.drained)

    def start(self, initial_delay: float = 0.0) -> None:
        self._process.start(initial_delay)

    def stop(self, recover: bool = True) -> None:
        # Battery damage is not undone on stop — energy does not come
        # back; only the scheduling stops.
        self._process.stop()

    def _drain_round(self) -> None:
        population = [
            n for n in self._eligible() if n not in self.drained
        ]
        want = min(self._count(), len(population))
        chosen = self._rng.sample(population, want) if want else []
        for node_id in chosen:
            node = self.network.node(node_id)
            if node.battery_joules is None:
                node.battery_joules = DEFAULT_CAPACITY
            floor = node.battery_joules * (1.0 - self._target_fraction)
            node.consumed_joules = max(node.consumed_joules, floor)
            self.drained.add(node_id)
        if chosen:
            self._record("inject", chosen)
        self.rounds += 1
        if self._max_rounds and self.rounds >= self._max_rounds:
            self._process.stop()


class GilbertElliottLinkFault(ChaosModel):
    """Bursty link loss: a two-state Gilbert-Elliott process per link.

    Installed into :meth:`WirelessMedium.set_link_fault`, the model
    holds one GOOD/BAD chain per undirected link with exponential
    sojourn times (means ``mean_good`` / ``mean_bad`` seconds).  While
    a link is BAD, frames on it are lost (``can_transmit`` gates shut)
    and the sensed signal margin is scaled by ``bad_quality`` — so
    REFER's maintenance sees exactly the "link about to break" signal
    a deep fade produces.  Sojourn ``k`` of link ``(a, b)`` is draw
    ``((a, b), k)`` of the model's keyed stream, so a link's state is
    a function of ``(seed, link, now)``: chains are walked lazily, but
    which links are asked about, when and in what order moves nothing
    (a look-back re-walks the chain from the epoch).

    ``eligible`` (a set of node ids) restricts the process to links
    whose *both* endpoints are in the set; None degrades every link.
    """

    name = "link-burst"

    def __init__(
        self,
        network: WirelessNetwork,
        rng: random.Random,
        mean_good: float = 8.0,
        mean_bad: float = 1.5,
        bad_quality: float = 0.0,
        eligible: Optional[Sequence[int]] = None,
    ) -> None:
        if mean_good <= 0 or mean_bad <= 0:
            raise ConfigError("Gilbert-Elliott sojourn means must be positive")
        if not 0.0 <= bad_quality <= 1.0:
            raise ConfigError("bad_quality must be in [0, 1]")
        super().__init__(network)
        self._draws = KeyedStream(rng)
        self._mean_good = mean_good
        self._mean_bad = mean_bad
        self._bad_quality = bad_quality
        self._eligible = frozenset(eligible) if eligible is not None else None
        self._installed = False
        self._epoch = 0.0
        # link key -> [in_good_state, state_start, state_end, sojourn k]
        self._chains: Dict[Tuple[int, int], List] = {}

    def active(self) -> bool:
        return self._installed

    def start(self, initial_delay: float = 0.0) -> None:
        if self._installed:
            return
        self._epoch = self.network.sim.now + initial_delay
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
        eligible = self._eligible
        if now < self._epoch or (
            eligible is not None
            and (src_id not in eligible or dst_id not in eligible)
        ):
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
        return self._bad_quality

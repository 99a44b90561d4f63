"""Traffic workloads: the paper's CBR events and a bursty stressor.

:class:`CbrWorkload` (Section IV): every :data:`SOURCE_WINDOW` seconds
a fresh set of :data:`SOURCES_PER_WINDOW` source sensors is drawn
uniformly; each source emits constant-bit-rate DATA packets toward its
nearby actuator for the duration of the window.

:class:`BurstyWorkload` (the QoS overload driver): many concurrent
sources alternating heavy-tailed Pareto on/off periods, emitting a
mix of alarm/control/bulk traffic with per-class deadlines.  Its
entire emission schedule for an epoch is drawn up-front from one RNG
stream (``qos.workload``), so the inter-arrival sequence is a pure
function of the seed regardless of how sim events interleave.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.experiments.metrics import QOS_DEADLINE, MetricsCollector
from repro.net.packet import Packet, PacketKind
from repro.qos.classes import TrafficClass
from repro.qos.config import BurstyConfig
from repro.sim.core import Simulator
from repro.wsan.system import WsanSystem

#: Sources drawn per window (the paper's five).
SOURCES_PER_WINDOW = 5
#: Seconds between source re-draws.
SOURCE_WINDOW = 10.0


class CbrWorkload:
    """Windowed constant-bit-rate traffic from rotating sources."""

    def __init__(
        self,
        sim: Simulator,
        system: WsanSystem,
        metrics: MetricsCollector,
        rng: random.Random,
        rate_pps: float,
        packet_bytes: int,
    ) -> None:
        self._sim = sim
        self._system = system
        self._metrics = metrics
        self._rng = rng
        self._rate_pps = rate_pps
        self._packet_bytes = packet_bytes
        self._end_time = 0.0
        self.windows = 0

    def start(self, begin: float, end: float) -> None:
        """Schedule source windows covering [begin, end)."""
        self._end_time = end
        t = begin
        while t < end:
            self._sim.schedule_at(t, self._open_window)
            t += SOURCE_WINDOW

    def _open_window(self) -> None:
        self.windows += 1
        # Broken-down sensors cannot detect events; the dense deployment
        # guarantees a working sensor observes them instead, so sources
        # are drawn from currently-usable sensors.
        sensors = [
            s
            for s in self._system.sensor_ids
            if self._system.network.node(s).usable
        ]
        count = min(SOURCES_PER_WINDOW, len(sensors))
        sources = self._rng.sample(sensors, count)
        window_end = min(
            self._sim.now + SOURCE_WINDOW, self._end_time
        )
        interval = 1.0 / self._rate_pps
        for source in sources:
            # Stagger sources so their packets interleave like
            # independent CBR streams rather than synchronised bursts.
            offset = self._rng.uniform(0, interval)
            t = self._sim.now + offset
            while t < window_end:
                self._sim.schedule_at(
                    t, lambda s=source: self._emit(s)
                )
                t += interval

    def _emit(self, source_id: int) -> None:
        packet = Packet(
            kind=PacketKind.DATA,
            size_bytes=self._packet_bytes,
            source=source_id,
            destination=None,
            created_at=self._sim.now,
            deadline=QOS_DEADLINE,
        )
        self._metrics.on_generated(packet)
        self._system.send_event(
            source_id,
            packet,
            on_delivered=self._metrics.on_delivered,
            on_dropped=self._metrics.on_dropped,
        )


# ----------------------------------------------------------------------
# bursty heavy-tailed workload (QoS overload driver)
# ----------------------------------------------------------------------

#: Seconds between source re-draws.
EPOCH = 2.0
#: Pareto scale (= minimum duration) of on- and of off-periods, seconds.
ON_SCALE = 0.2
OFF_SCALE = 0.1
#: Truncation cap applied to every drawn duration, seconds.
MAX_PERIOD = 5.0
#: Pareto shape of on- and of off-period durations (above 1: a finite
#: mean).
ON_SHAPE = 1.5
OFF_SHAPE = 1.5
#: Fractions of emissions marked alarm and control class (the rest is
#: bulk).
ALARM_FRACTION = 0.1
CONTROL_FRACTION = 0.2
#: Relative delivery deadline stamped on alarm and on control packets,
#: seconds; bulk is elastic (no deadline, never deadline-dropped).
ALARM_DEADLINE = 0.25
CONTROL_DEADLINE = 0.6


def pareto_duration(
    rng: random.Random, shape: float, scale: float, cap: float
) -> float:
    """One truncated-Pareto duration: ``min(scale * P, cap)``.

    ``P ~ paretovariate(shape)`` has support [1, inf); truncation at
    ``cap`` keeps the empirical mean convergent (raw Pareto with shape
    near 1 converges hopelessly slowly), and gives the closed form of
    :func:`expected_pareto_duration` for the property tests.
    """
    return min(scale * rng.paretovariate(shape), cap)


def expected_pareto_duration(shape: float, scale: float, cap: float) -> float:
    """The exact mean of :func:`pareto_duration`'s distribution.

    With ``r = cap / scale >= 1`` and ``a = shape > 1``::

        E[min(P, r)] = a/(a-1) * (1 - r**(1-a)) + r**(1-a)

    scaled back by ``scale``.
    """
    r = cap / scale
    tail = r ** (1.0 - shape)
    return scale * (shape / (shape - 1.0) * (1.0 - tail) + tail)


def draw_class(rng: random.Random) -> Tuple[TrafficClass, Optional[float]]:
    """Draw one emission's (traffic class, relative deadline)."""
    roll = rng.random()
    if roll < ALARM_FRACTION:
        return TrafficClass.ALARM, ALARM_DEADLINE
    if roll < ALARM_FRACTION + CONTROL_FRACTION:
        return TrafficClass.CONTROL, CONTROL_DEADLINE
    return TrafficClass.BULK, None


def emission_schedule(
    rng: random.Random,
    config: BurstyConfig,
    begin: float,
    end: float,
) -> List[Tuple[float, TrafficClass, Optional[float]]]:
    """One source's emissions over [begin, end): (time, class, deadline).

    Alternates Pareto on-periods (emitting at the multiplied peak
    rate) with Pareto off-periods.  Every draw happens here, in
    sequence, from the one RNG — the schedule is a pure function of
    the RNG state, which is what the determinism property tests pin.
    """
    interval = 1.0 / (config.peak_rate_pps * config.load_multiplier)
    schedule: List[Tuple[float, TrafficClass, Optional[float]]] = []
    t = begin + rng.uniform(0, interval)
    while t < end:
        burst = pareto_duration(rng, ON_SHAPE, ON_SCALE, MAX_PERIOD)
        on_end = min(t + burst, end)
        while t < on_end:
            cls, deadline = draw_class(rng)
            schedule.append((t, cls, deadline))
            t += interval
        t += pareto_duration(rng, OFF_SHAPE, OFF_SCALE, MAX_PERIOD)
    return schedule


class BurstyWorkload:
    """Heavy-tailed on/off traffic with per-class QoS marks.

    Each :data:`EPOCH` seconds a fresh set of ``config.sources``
    usable sensors is drawn; every source then follows its own
    :func:`emission_schedule`.  When an
    :class:`~repro.qos.admission.AdmissionController` is installed,
    each emission passes through it at the source — refused packets
    die on the spot, dropped as ``admission_rejected``, and never touch
    the network.
    """

    def __init__(
        self,
        sim: Simulator,
        system: WsanSystem,
        metrics: MetricsCollector,
        rng: random.Random,
        config: BurstyConfig,
        packet_bytes: int,
        admission=None,
    ) -> None:
        self._sim = sim
        self._system = system
        self._metrics = metrics
        self._rng = rng
        self._config = config
        self._packet_bytes = packet_bytes
        self._admission = admission
        self._end_time = 0.0
        self.epochs = 0

    def start(self, begin: float, end: float) -> None:
        """Schedule source epochs covering [begin, end)."""
        self._end_time = end
        t = begin
        while t < end:
            self._sim.schedule_at(t, self._open_epoch)
            t += EPOCH

    def _open_epoch(self) -> None:
        self.epochs += 1
        sensors = [
            s
            for s in self._system.sensor_ids
            if self._system.network.node(s).usable
        ]
        count = min(self._config.sources, len(sensors))
        sources = self._rng.sample(sensors, count)
        epoch_end = min(self._sim.now + EPOCH, self._end_time)
        for source in sources:
            schedule = emission_schedule(
                self._rng, self._config, self._sim.now, epoch_end
            )
            for when, cls, deadline in schedule:
                self._sim.schedule_at(
                    when,
                    lambda s=source, c=cls, d=deadline: self._emit(s, c, d),
                )

    def _emit(
        self,
        source_id: int,
        cls: TrafficClass,
        deadline: Optional[float],
    ) -> None:
        packet = Packet(
            kind=PacketKind.DATA,
            size_bytes=self._packet_bytes,
            source=source_id,
            destination=None,
            created_at=self._sim.now,
            deadline=deadline,
            traffic_class=cls.value,
        )
        self._metrics.on_generated(packet)
        if self._admission is not None:
            refusal = self._admission.admit(source_id, packet, self._sim.now)
            if refusal is not None:
                self._metrics.on_dropped(packet, refusal)
                return
        self._system.send_event(
            source_id,
            packet,
            on_delivered=self._metrics.on_delivered,
            on_dropped=self._metrics.on_dropped,
        )

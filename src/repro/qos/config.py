"""Configuration for the QoS / overload-robustness subsystem.

:class:`QosConfig` is the frozen knob set carried by
:class:`~repro.experiments.config.ScenarioConfig` in its ``qos``
field; :class:`BurstyConfig` parameterises the heavy-tailed
:class:`~repro.experiments.workload.BurstyWorkload` carried in the
``bursty`` field.  Both default to ``None`` on ``ScenarioConfig``, so
every pre-existing experiment stays byte-identical (the PR 4/5
pattern).

The QoS mechanisms layer on each other:

* ``priority_mac`` — per-node priority queue in front of the MAC with
  deadline-drop and bounded per-class depth (the base mechanism);
* ``admission`` — token-bucket admission control at traffic sources;
* ``backpressure`` — a node whose MAC queue crosses ``high_water``
  is marked congested; upstream nodes shed or detour bulk traffic
  headed into it, and source buckets throttle their refill, until the
  queue drains below ``low_water``.  Requires ``priority_mac`` (the
  queue is the congestion signal).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError

__all__ = ["QosConfig", "BurstyConfig"]


@dataclass(frozen=True)
class QosConfig:
    """Tunables of the QoS subsystem (all mechanisms default to on)."""

    # -- priority MAC queueing --------------------------------------------
    #: Enable the per-node priority queue + deadline-drop in front of
    #: the MAC.
    priority_mac: bool = True
    #: Bounded queue depth for bulk frames (per node).  Deliberately
    #: shallow: under overload bulk is shed at the hop, not buffered
    #: into uselessness.
    bulk_queue_depth: int = 8

    # -- source admission control -----------------------------------------
    #: Enable token-bucket admission control at traffic sources.
    admission: bool = True
    #: Sustained bulk admission rate per source (packets/second).
    bulk_bucket_rate: float = 6.0
    #: Bulk bucket capacity (burst allowance, packets).
    bulk_bucket_burst: float = 10.0
    #: Control-class bucket rate/burst as a multiple of the bulk
    #: bucket (control is policed loosely; alarm is never policed).
    control_bucket_scale: float = 4.0

    # -- hop-level backpressure -------------------------------------------
    #: Enable congestion marking + upstream shedding/throttling.
    backpressure: bool = True
    #: Queue depth at which a node is marked congested.
    high_water: int = 6
    #: Queue depth at which the congestion mark clears (hysteresis).
    low_water: int = 2
    #: While any node is congested, source bulk buckets refill at
    #: ``throttle_factor`` times their configured rate.
    throttle_factor: float = 0.25

    def __post_init__(self) -> None:
        if self.bulk_queue_depth < 1:
            raise ConfigError("bulk_queue_depth must be >= 1")
        if self.bulk_bucket_rate <= 0 or self.bulk_bucket_burst < 1.0:
            raise ConfigError(
                "bulk bucket needs positive rate and burst >= 1"
            )
        if self.control_bucket_scale <= 0:
            raise ConfigError("control_bucket_scale must be positive")
        if self.backpressure and not self.priority_mac:
            raise ConfigError(
                "backpressure requires priority_mac (the MAC queue is "
                "the congestion signal)"
            )
        if not 0 <= self.low_water < self.high_water:
            raise ConfigError("need 0 <= low_water < high_water")
        if not 0.0 < self.throttle_factor <= 1.0:
            raise ConfigError("throttle_factor must be in (0, 1]")

    @property
    def any_enabled(self) -> bool:
        """Whether any QoS mechanism is switched on."""
        return self.priority_mac or self.admission or self.backpressure


@dataclass(frozen=True)
class BurstyConfig:
    """Heavy-tailed on/off workload (Pareto burst and gap durations).

    Each epoch a fresh set of ``sources`` sensors alternates Pareto
    on-periods (emitting at ``peak_rate_pps * load_multiplier``) with
    Pareto off-periods.  Epoch length, Pareto scales and the truncation
    cap are constants of :mod:`repro.experiments.workload`.
    """

    #: Concurrent bursting sources per epoch.
    sources: int = 8
    #: Offered-load multiplier applied to ``peak_rate_pps`` — the
    #: overload sweep's x-axis (1x .. 100x).
    load_multiplier: float = 1.0
    #: Per-source emission rate during an on-period, before the
    #: multiplier (packets/second).
    peak_rate_pps: float = 4.0
    #: Pareto shape of on-period durations (must exceed 1 for a
    #: finite mean).
    on_shape: float = 1.5
    #: Pareto shape of off-period durations.
    off_shape: float = 1.5
    #: Fraction of emissions marked alarm class.
    alarm_fraction: float = 0.1
    #: Fraction of emissions marked control class (the remainder is
    #: bulk).
    control_fraction: float = 0.2
    #: Relative delivery deadline stamped on alarm packets, seconds.
    alarm_deadline: float = 0.25
    #: Relative deadline on control packets, seconds.
    control_deadline: float = 0.6
    #: Relative deadline on bulk packets (None = elastic, never
    #: deadline-dropped).
    bulk_deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.sources < 1:
            raise ConfigError("sources must be >= 1")
        if self.load_multiplier <= 0 or self.peak_rate_pps <= 0:
            raise ConfigError("offered load must be positive")
        if min(self.on_shape, self.off_shape) <= 1.0:
            raise ConfigError(
                "Pareto shapes must exceed 1 (finite mean)"
            )
        if not (
            0.0 <= self.alarm_fraction
            and 0.0 <= self.control_fraction
            and self.alarm_fraction + self.control_fraction <= 1.0
        ):
            raise ConfigError(
                "class fractions must be non-negative and sum to <= 1"
            )
        for deadline in (
            self.alarm_deadline,
            self.control_deadline,
            self.bulk_deadline,
        ):
            if deadline is not None and deadline <= 0:
                raise ConfigError("deadlines must be positive or None")

"""The QoS switch and the bursty workload's configuration.

:class:`QosConfig` is what
:class:`~repro.experiments.config.ScenarioConfig` carries in its
``qos`` field.  It has no fields: a present ``QosConfig`` turns the
whole stack on — the per-node priority queue with deadline-drop in
front of the MAC, token-bucket admission at traffic sources, and
hop-level backpressure (a node whose queue crosses the high-water mark
is congested; upstream nodes shed or detour bulk traffic into it and
source buckets throttle until it drains).  The mechanisms' tunables
are constants of the modules that read them (:mod:`repro.qos.mac`,
:mod:`repro.qos.admission`, :mod:`repro.qos.backpressure`).

:class:`BurstyConfig` parameterises the heavy-tailed
:class:`~repro.experiments.workload.BurstyWorkload` carried in the
``bursty`` field.  Both default to ``None`` on ``ScenarioConfig``, so
every pre-existing experiment stays byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError, require_int_fields

__all__ = ["QosConfig", "BurstyConfig"]


@dataclass(frozen=True)
class QosConfig:
    """Switch for the QoS stack: scheduler, admission, backpressure."""


@dataclass(frozen=True)
class BurstyConfig:
    """Heavy-tailed on/off workload (Pareto burst and gap durations).

    Each epoch a fresh set of ``sources`` sensors alternates Pareto
    on-periods (emitting at ``peak_rate_pps * load_multiplier``) with
    Pareto off-periods.  Epoch length, Pareto shapes and scales, the
    truncation cap and the class mix with its deadlines are constants
    of :mod:`repro.experiments.workload`.
    """

    #: Concurrent bursting sources per epoch.
    sources: int = 8
    #: Offered-load multiplier applied to ``peak_rate_pps`` — the
    #: overload sweep's x-axis (1x .. 100x).
    load_multiplier: float = 1.0
    #: Per-source emission rate during an on-period, before the
    #: multiplier (packets/second).
    peak_rate_pps: float = 4.0

    def __post_init__(self) -> None:
        require_int_fields(self)
        if self.sources < 1:
            raise ConfigError("sources must be >= 1")
        # NaN fails every comparison; an infinite rate (either factor,
        # or their product) never leaves its first burst.
        rate = self.peak_rate_pps * self.load_multiplier
        for value in (self.load_multiplier, self.peak_rate_pps, rate):
            if not 0 < value < math.inf:
                raise ConfigError("offered load must be positive and finite")

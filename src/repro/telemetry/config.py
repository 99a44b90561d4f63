"""Telemetry configuration and the per-run telemetry bundle.

:class:`TelemetryConfig` is a frozen dataclass so it can live inside
the (hashable) :class:`~repro.experiments.config.ScenarioConfig` and
take part in the run-memo key.  ``ScenarioConfig.telemetry is None``
means *disabled*: the run carries a private registry for its stats
views (free — the same additions the old dataclasses did) but spawns
no flight recorder and no profiler, and ``RunResult.telemetry`` stays
``None`` so results are byte-identical to pre-telemetry goldens.

:class:`Telemetry` is the live bundle the runner hands back on
``RunResult.telemetry``: the registry, the flight recorder and the
profiler, plus the trace stream when the config asks for one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.telemetry.flight import FlightRecorder
from repro.telemetry.profiler import SimProfiler
from repro.telemetry.registry import Registry
from repro.telemetry.tracing import TraceStream, TracingConfig

__all__ = ["TelemetryConfig", "Telemetry"]


@dataclass(frozen=True)
class TelemetryConfig:
    """What to record during a run (hashable; part of the memo key).

    Per-packet journeys (:mod:`repro.telemetry.flight`) and the
    simulated-work profile (:mod:`repro.telemetry.profiler`) are always
    recorded.
    """

    #: Deterministic trace capture (:mod:`repro.telemetry.tracing`);
    #: ``None`` records no trace and leaves every hot path at a single
    #: attribute check.
    tracing: Optional[TracingConfig] = None


@dataclass
class Telemetry:
    """The live telemetry of one run (``RunResult.telemetry``)."""

    registry: Registry = field(default_factory=Registry)
    flight: FlightRecorder = field(default_factory=FlightRecorder)
    profiler: SimProfiler = field(default_factory=SimProfiler)
    trace: Optional[TraceStream] = None
    #: Detector verdict timeline ``(time, subject, verdict, detail)``,
    #: attached by the runner when the recovery stack ran.
    verdicts: Tuple[object, ...] = ()

    @classmethod
    def from_config(cls, config: TelemetryConfig) -> "Telemetry":
        """Build the bundle an enabled run records into."""
        return cls(
            trace=(
                TraceStream(config.tracing)
                if config.tracing is not None else None
            ),
        )

    def finalize(self) -> None:
        """Fold end-of-run aggregates (profiler counters) into the
        registry and seal the trace; idempotence is the caller's
        problem — call once."""
        self.profiler.finalize(self.registry)
        if self.trace is not None:
            self.trace.close()

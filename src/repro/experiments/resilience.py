"""The resilience campaign: fault class x intensity across systems.

The robustness counterpart of :mod:`repro.experiments.campaign`:
:func:`resilience_campaign` sweeps chaos fault classes (crash
rotation, permanent attrition, actuator outage, regional blackout,
battery depletion, bursty links) over an intensity axis for every
system, and reports per cell the delivery ratio, the windowed trough
during the fault, the time-to-recovery, and the communication-phase
flood energy — the last one separating REFER's local repair (no
route-discovery floods, ~0 J) from the flooding baselines.

::

    from repro.experiments.resilience import (
        resilience_campaign, format_resilience,
    )
    result = resilience_campaign(ScenarioConfig(sim_time=40), seeds=2)
    print(format_resilience(result))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chaos import FaultSpec
from repro.errors import ConfigError
from repro.experiments.config import ScenarioConfig
from repro.experiments.figures import ALL_SYSTEMS
from repro.experiments.journal import spec_fingerprint
from repro.experiments.parallel import supervise
from repro.experiments.payload import merge_registry_snapshots
from repro.experiments.runner import RunResult
from repro.recovery import RecoveryConfig
from repro.util.stats import confidence_interval_95

#: The default fault classes the campaign sweeps (>= 4 per the
#: acceptance bar; "actuator" and "links" are opt-in extras).
DEFAULT_FAULT_CLASSES: Tuple[str, ...] = (
    "rotation",
    "permanent",
    "blackout",
    "battery",
)

DEFAULT_INTENSITIES: Tuple[int, ...] = (2, 6)


def specs_for(
    fault_class: str, intensity: int, config: ScenarioConfig
) -> Tuple[FaultSpec, ...]:
    """Map (fault class, intensity) to concrete chaos specs.

    Faults start a quarter into the measured window, leaving a clean
    pre-fault baseline for the recovery probe.  Intensity scales the
    class's natural severity knob: nodes per burst for crash classes,
    disc radius for blackouts, burst duty for link faults.
    """
    if intensity < 1:
        raise ConfigError("intensity must be >= 1")
    start = config.warmup + 0.25 * config.sim_time
    if fault_class == "rotation":
        return (
            FaultSpec(kind="rotation", count=intensity, period=10.0,
                      start=start),
        )
    if fault_class == "permanent":
        return (
            FaultSpec(kind="permanent", count=intensity, period=10.0,
                      rounds=2, start=start),
        )
    if fault_class == "actuator":
        return (
            FaultSpec(kind="actuator", count=max(1, intensity // 4),
                      period=20.0, duration=8.0, rounds=2, start=start),
        )
    if fault_class == "blackout":
        return (
            FaultSpec(kind="blackout", radius=40.0 + 10.0 * intensity,
                      period=20.0, duration=8.0, rounds=1, start=start),
        )
    if fault_class == "battery":
        return (
            FaultSpec(kind="battery", count=intensity, period=10.0,
                      rounds=1, start=start),
        )
    if fault_class == "links":
        return (
            FaultSpec(kind="links", mean_good=max(2.0, 12.0 - intensity),
                      mean_bad=0.5 + 0.25 * intensity, start=start),
        )
    raise ConfigError(f"unknown fault class {fault_class!r}")


@dataclass(frozen=True)
class ResilienceCell:
    """One (system, fault class, intensity) point, seed-averaged."""

    system: str
    fault_class: str
    intensity: int
    delivery_ratio: float
    delivery_ci95: float
    trough: float                 # mean windowed trough during faults
    recovery_time_s: float        # mean time-to-recovery (recovered faults)
    recovered_fraction: float     # share of faults recovered from
    flood_comm_energy_j: float    # comm-phase route-discovery flood energy
    #: Mean fault-to-condemnation latency of the failure detector
    #: (0 without a recovery stack — omniscient runs detect "for free").
    detection_latency_s: float = 0.0
    #: Detector false-positive rate (condemnations of live nodes over
    #: all condemnations); 0 without a recovery stack.
    false_positive_rate: float = 0.0


@dataclass
class ResilienceResult:
    """The full campaign grid."""

    base: ScenarioConfig
    seeds: int
    cells: List[ResilienceCell] = field(default_factory=list)
    #: Quarantined jobs
    #: (:class:`repro.experiments.parallel.FailedJob`); empty when
    #: every job completed.
    failed_jobs: tuple = ()
    #: Deterministic merge of the per-job telemetry registry snapshots
    #: (telemetry-enabled base configs only).
    merged_registry: Optional[dict] = None

    def cell(
        self, system: str, fault_class: str, intensity: int
    ) -> ResilienceCell:
        for c in self.cells:
            if (
                c.system == system
                and c.fault_class == fault_class
                and c.intensity == intensity
            ):
                return c
        raise KeyError((system, fault_class, intensity))

    def fault_classes(self) -> List[str]:
        seen: Dict[str, None] = {}
        for c in self.cells:
            seen.setdefault(c.fault_class, None)
        return list(seen)


def resilience_config(
    base: ScenarioConfig,
    fault_class: str,
    intensity: int,
    seed: int,
    recovery: Optional[RecoveryConfig] = None,
) -> ScenarioConfig:
    """The scenario one (fault class, intensity, seed) point runs.

    The campaign below decomposes its grid and merges its cells
    through this one mapping, so both name the same configurations.
    """
    return base.with_(
        seed=seed,
        fault_spec=specs_for(fault_class, intensity, base),
        recovery=recovery,
    )


def aggregate_resilience_cell(
    system: str,
    fault_class: str,
    intensity: int,
    runs: Sequence[Optional[RunResult]],
) -> ResilienceCell:
    """Fold one point's seed runs (in seed order) into its cell.

    ``None`` entries are quarantined jobs: the cell averages the seeds
    that completed.
    """
    ratios: List[float] = []
    troughs: List[float] = []
    recovery_s: List[float] = []
    recovered: List[float] = []
    flood: List[float] = []
    detect: List[float] = []
    fp_rates: List[float] = []
    for run in runs:
        if run is None:
            continue
        ratios.append(run.delivery_ratio)
        flood.append(run.flood_comm_energy_j)
        summary = run.resilience
        if summary is not None and summary.fault_count:
            troughs.append(summary.mean_trough)
            recovery_s.append(summary.mean_recovery_s)
            recovered.append(summary.recovered_fraction)
        report = run.recovery
        if report is not None:
            detect.append(report.mean_time_to_detect_s)
            fp_rates.append(report.false_positive_rate)
    if ratios:
        mean_ratio, ci = confidence_interval_95(ratios)
    else:
        mean_ratio, ci = float("nan"), 0.0
    return ResilienceCell(
        system=system,
        fault_class=fault_class,
        intensity=intensity,
        delivery_ratio=mean_ratio,
        delivery_ci95=ci,
        trough=_mean(troughs, default=1.0),
        recovery_time_s=_mean(recovery_s, default=0.0),
        recovered_fraction=_mean(recovered, default=1.0),
        flood_comm_energy_j=_mean(flood, default=0.0),
        detection_latency_s=_mean(detect, default=0.0),
        false_positive_rate=_mean(fp_rates, default=0.0),
    )


def resilience_campaign(
    base: ScenarioConfig = ScenarioConfig(),
    systems: Sequence[str] = ALL_SYSTEMS,
    fault_classes: Sequence[str] = DEFAULT_FAULT_CLASSES,
    intensities: Sequence[int] = DEFAULT_INTENSITIES,
    seeds: int = 2,
    recovery: Optional[RecoveryConfig] = None,
    **supervision,
) -> ResilienceResult:
    """Sweep fault class x intensity for every system.

    Deterministic in ``(base, seeds)``: each point derives its config
    from ``base`` plus the class's :func:`specs_for` and a seed index,
    and every run draws all chaos randomness from the run's
    ``RngStreams``.

    Passing ``recovery`` runs the campaign with the self-healing stack
    (:mod:`repro.recovery`) enabled — REFER then detects faults from
    heartbeat evidence instead of omnisciently, and the cells report
    detection latency and false-positive rate per fault class.

    ``supervision`` (``workers``, ``journal``, ``resume``, ``retry``,
    ``work``) goes to :func:`repro.experiments.parallel.supervise`; a
    quarantined job lands in ``failed_jobs`` and its cell averages the
    seeds that completed.
    """
    if seeds < 1:
        raise ConfigError("seeds must be >= 1")
    systems = tuple(systems)
    fault_classes = tuple(fault_classes)
    intensities = tuple(intensities)
    grid = [
        (system, fault_class, intensity)
        for system in systems
        for fault_class in fault_classes
        for intensity in intensities
    ]

    def configs(fault_class: str, intensity: int) -> List[ScenarioConfig]:
        return [
            resilience_config(base, fault_class, intensity, seed, recovery)
            for seed in range(1, seeds + 1)
        ]

    outcome = supervise(
        (
            (system, config)
            for system, fault_class, intensity in grid
            for config in configs(fault_class, intensity)
        ),
        spec_fingerprint(
            "resilience", base, seeds, systems, fault_classes, intensities,
            recovery,
        ),
        **supervision,
    )
    result = ResilienceResult(
        base=base,
        seeds=seeds,
        failed_jobs=outcome.failed,
        merged_registry=merge_registry_snapshots(outcome.payloads),
    )
    for system, fault_class, intensity in grid:
        runs = [
            outcome.result_for(system, config)
            for config in configs(fault_class, intensity)
        ]
        result.cells.append(
            aggregate_resilience_cell(system, fault_class, intensity, runs)
        )
    return result


def _mean(values: Sequence[float], default: float) -> float:
    return sum(values) / len(values) if values else default


def format_resilience(result: ResilienceResult) -> str:
    """Render the campaign grid as a fixed-width table."""
    base = result.base
    header = (
        f"{'system':<14} {'fault':<10} {'int':>3} "
        f"{'delivery':>9} {'trough':>7} {'rec(s)':>7} "
        f"{'rec%':>6} {'floodJ':>9} {'det(s)':>7} {'fp%':>6}"
    )
    lines = [
        "Resilience campaign "
        f"(sim_time={base.sim_time:g}s, warmup={base.warmup:g}s, "
        f"seeds={result.seeds})",
        header,
        "-" * len(header),
    ]
    for cell in result.cells:
        lines.append(
            f"{cell.system:<14} {cell.fault_class:<10} "
            f"{cell.intensity:>3} "
            f"{cell.delivery_ratio:>9.3f} "
            f"{cell.trough:>7.2f} "
            f"{cell.recovery_time_s:>7.2f} "
            f"{cell.recovered_fraction * 100.0:>5.0f}% "
            f"{cell.flood_comm_energy_j:>9.1f} "
            f"{cell.detection_latency_s:>7.2f} "
            f"{cell.false_positive_rate * 100.0:>5.1f}%"
        )
    return "\n".join(lines)

"""Figure regeneration: one spec per evaluation figure (Figs 4-11).

A figure sweeps the paper's x-axis, runs every system ``seeds`` times
per point, and is returned as a :class:`FigureData` with per-point
mean and 95% confidence half-width — the same series the paper plots.

Every figure is described declaratively by a :class:`FigureSpec` in
:data:`FIGURE_SPECS`: the sweep axis, how one ``(x, seed)`` point maps
to a :class:`~repro.experiments.config.ScenarioConfig`, and which
:class:`~repro.experiments.runner.RunResult` metric the y-axis reads.
The campaign (:mod:`repro.experiments.campaign`) decomposes its grid
through ``config_for`` and :func:`sweep_figure` aggregates through the
same call, so decomposition and aggregation cannot drift apart.
Nothing here runs a scenario — that is
:func:`repro.experiments.campaign.run_figure`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import RunResult, crash_rotation
from repro.util.stats import confidence_interval_95

ALL_SYSTEMS = ("REFER", "DaTree", "D-DEAR", "Kautz-overlay")

DEFAULT_MOBILITY_SPEEDS = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0)   # max speeds; avg = x/2
DEFAULT_FAULT_COUNTS = (2, 4, 6, 8, 10)
DEFAULT_NETWORK_SIZES = (100, 200, 300, 400)


@dataclass(frozen=True)
class SeriesPoint:
    x: float
    mean: float
    ci95: float
    samples: int


@dataclass
class FigureData:
    """One regenerated figure: labelled series of (x, mean, ci)."""

    figure: str
    title: str
    xlabel: str
    ylabel: str
    series: Dict[str, List[SeriesPoint]] = field(default_factory=dict)

    def value_at(self, system: str, x: float) -> float:
        for point in self.series[system]:
            if point.x == x:
                return point.mean
        raise KeyError(f"no point at x={x} for {system}")

    def xs(self) -> List[float]:
        first = next(iter(self.series.values()))
        return [p.x for p in first]


# ---------------------------------------------------------------------------
# Declarative figure specs
# ---------------------------------------------------------------------------


def _mobility_config(base: ScenarioConfig, x: float, seed: int) -> ScenarioConfig:
    return base.with_(sensor_max_speed=x, seed=seed)


def _faults_config(base: ScenarioConfig, x: float, seed: int) -> ScenarioConfig:
    return base.with_(fault_spec=crash_rotation(int(x)), seed=seed)


def _size_config(base: ScenarioConfig, x: float, seed: int) -> ScenarioConfig:
    return base.with_(sensor_count=int(x), seed=seed)


def _metric_throughput(run: RunResult) -> float:
    return run.throughput_bps


def _metric_delay(run: RunResult) -> float:
    return run.mean_delay_s


def _metric_comm_energy(run: RunResult) -> float:
    return run.comm_energy_j


def _metric_construction_energy(run: RunResult) -> float:
    return run.construction_energy_j


def _metric_total_energy(run: RunResult) -> float:
    return run.total_energy_j


@dataclass(frozen=True)
class FigureSpec:
    """Everything one evaluation figure is made of.

    ``config_for(base, x, seed)`` maps a sweep point to the scenario it
    runs; ``metric(run)`` reads the y value off the finished run.  Both
    are module-level functions so specs stay picklable.
    """

    name: str          # registry key, e.g. "fig8"
    figure: str        # display name, e.g. "Fig 8"
    title: str
    xlabel: str
    ylabel: str
    default_xs: Tuple[float, ...]
    config_for: Callable[[ScenarioConfig, float, int], ScenarioConfig]
    metric: Callable[[RunResult], float]


FIGURE_SPECS: Dict[str, FigureSpec] = {
    spec.name: spec
    for spec in (
        FigureSpec(
            name="fig4",
            figure="Fig 4",
            title="Throughput vs node mobility",
            xlabel="max speed (m/s); paper plots avg = x/2",
            ylabel="QoS throughput (bit/s)",
            default_xs=DEFAULT_MOBILITY_SPEEDS,
            config_for=_mobility_config,
            metric=_metric_throughput,
        ),
        FigureSpec(
            name="fig5",
            figure="Fig 5",
            title="Communication energy vs node mobility",
            xlabel="max speed (m/s); paper plots avg = x/2",
            ylabel="energy (J)",
            default_xs=DEFAULT_MOBILITY_SPEEDS,
            config_for=_mobility_config,
            metric=_metric_comm_energy,
        ),
        FigureSpec(
            name="fig6",
            figure="Fig 6",
            title="Delay vs number of faulty nodes",
            xlabel="faulty nodes",
            ylabel="mean delay (s)",
            default_xs=DEFAULT_FAULT_COUNTS,
            config_for=_faults_config,
            metric=_metric_delay,
        ),
        FigureSpec(
            name="fig7",
            figure="Fig 7",
            title="Throughput vs number of faulty nodes",
            xlabel="faulty nodes",
            ylabel="QoS throughput (bit/s)",
            default_xs=DEFAULT_FAULT_COUNTS,
            config_for=_faults_config,
            metric=_metric_throughput,
        ),
        FigureSpec(
            name="fig8",
            figure="Fig 8",
            title="Delay vs network size",
            xlabel="sensors",
            ylabel="mean delay (s)",
            default_xs=DEFAULT_NETWORK_SIZES,
            config_for=_size_config,
            metric=_metric_delay,
        ),
        FigureSpec(
            name="fig9",
            figure="Fig 9",
            title="Communication energy vs network size",
            xlabel="sensors",
            ylabel="energy (J)",
            default_xs=DEFAULT_NETWORK_SIZES,
            config_for=_size_config,
            metric=_metric_comm_energy,
        ),
        FigureSpec(
            name="fig10",
            figure="Fig 10",
            title="Topology-construction energy vs network size",
            xlabel="sensors",
            ylabel="energy (J)",
            default_xs=DEFAULT_NETWORK_SIZES,
            config_for=_size_config,
            metric=_metric_construction_energy,
        ),
        FigureSpec(
            name="fig11",
            figure="Fig 11",
            title="Total energy vs network size",
            xlabel="sensors",
            ylabel="energy (J)",
            default_xs=DEFAULT_NETWORK_SIZES,
            config_for=_size_config,
            metric=_metric_total_energy,
        ),
    )
}

#: How a run is obtained for one (system, config) point: the campaign
#: passes a lookup into its decoded results.
RunProvider = Callable[[str, ScenarioConfig], RunResult]


def sweep_figure(
    spec: FigureSpec,
    base: ScenarioConfig,
    x_values: Sequence[float],
    systems: Sequence[str],
    seeds: int,
    run: RunProvider,
) -> FigureData:
    """Sweep one figure's grid and aggregate it into a :class:`FigureData`.

    Aggregation is deterministic in the grid — seed order, then x
    order, then system order — never in completion order, so any
    ``run`` provider that returns equal :class:`RunResult` values
    yields a byte-identical figure.
    """
    data = FigureData(
        figure=spec.figure,
        title=spec.title,
        xlabel=spec.xlabel,
        ylabel=spec.ylabel,
    )
    for system in systems:
        points: List[SeriesPoint] = []
        for x in x_values:
            values = [
                spec.metric(run(system, spec.config_for(base, x, seed)))
                for seed in range(1, seeds + 1)
            ]
            mean, ci = confidence_interval_95(values)
            points.append(
                SeriesPoint(x=x, mean=mean, ci95=ci, samples=len(values))
            )
        data.series[system] = points
    return data

"""Full-evaluation campaigns: regenerate every figure in one call.

:func:`run_campaign` sweeps all eight evaluation figures (optionally a
subset) and returns a :class:`CampaignResult`; :func:`run_figure` is
the one-figure campaign; :func:`campaign_report` renders a result as a
self-contained markdown document — the machinery behind
``EXPERIMENTS.md``-style write-ups::

    from repro.experiments.campaign import run_campaign, campaign_report
    result = run_campaign(ScenarioConfig(sim_time=30), seeds=2)
    pathlib.Path("report.md").write_text(campaign_report(result))

Every grid runs through :func:`repro.experiments.parallel.supervise`:
each distinct ``(system, config)`` point once (Figs 8-11 share their
size sweep), in this process or on a pool of ``workers`` spawned ones,
with ``journal``/``resume`` checkpointing — none of which changes a
number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence

from repro.errors import ConfigError
from repro.experiments.config import ScenarioConfig
from repro.experiments.figures import (
    ALL_SYSTEMS,
    FIGURE_SPECS,
    FigureData,
    sweep_figure,
)
from repro.experiments.journal import spec_fingerprint
from repro.experiments.parallel import supervise
from repro.experiments.payload import merge_registry_snapshots
from repro.experiments.report import format_figure


@dataclass
class CampaignResult:
    """All regenerated figures of one campaign."""

    base: ScenarioConfig
    seeds: int
    figures: Dict[str, FigureData] = field(default_factory=dict)
    #: Deterministic merge of the per-job telemetry registry snapshots
    #: (telemetry-enabled base configs only).
    merged_registry: Optional[dict] = None


def campaign_axes(
    figures: Optional[Sequence[str]] = None,
    sweeps: Optional[Mapping[str, Sequence[float]]] = None,
) -> Dict[str, tuple]:
    """The x-axis per selected figure, in selection order.

    ``figures`` None selects all eight in canonical order; ``sweeps``
    overrides a selected figure's default axis.
    """
    selected = list(figures) if figures is not None else list(FIGURE_SPECS)
    unknown = [name for name in selected if name not in FIGURE_SPECS]
    if unknown:
        raise ConfigError(f"unknown figures: {unknown}")
    sweeps = dict(sweeps) if sweeps else {}
    unknown = [name for name in sweeps if name not in selected]
    if unknown:
        raise ConfigError(f"sweep overrides for unselected figures: {unknown}")
    return {
        name: tuple(sweeps.get(name, FIGURE_SPECS[name].default_xs))
        for name in selected
    }


def run_campaign(
    base: ScenarioConfig = ScenarioConfig(),
    seeds: int = 2,
    figures: Optional[Sequence[str]] = None,
    systems: Sequence[str] = ALL_SYSTEMS,
    sweeps: Optional[Mapping[str, Sequence[float]]] = None,
    **supervision,
) -> CampaignResult:
    """Regenerate the selected figures (default: all of Figs 4-11).

    ``supervision`` is passed to
    :func:`repro.experiments.parallel.supervise` (``workers``,
    ``journal``, ``resume``); a job that fails raises
    :class:`~repro.errors.CampaignError` naming it.
    """
    if seeds < 1:
        raise ConfigError("seeds must be >= 1")
    axes = campaign_axes(figures, sweeps)
    outcome = supervise(
        (
            (system, FIGURE_SPECS[name].config_for(base, x, seed))
            for name, xs in axes.items()
            for system in systems
            for x in xs
            for seed in range(1, seeds + 1)
        ),
        spec_fingerprint(
            "figures", base, seeds, tuple(axes), tuple(systems),
            tuple(sorted(axes.items())),
        ),
        **supervision,
    )
    result = CampaignResult(
        base=base,
        seeds=seeds,
        merged_registry=merge_registry_snapshots(outcome.payloads),
    )
    for name, xs in axes.items():
        result.figures[name] = sweep_figure(
            FIGURE_SPECS[name], base, xs, systems, seeds, outcome.result_for
        )
    return result


def run_figure(
    name: str,
    base: ScenarioConfig = ScenarioConfig(),
    xs: Optional[Sequence[float]] = None,
    systems: Sequence[str] = ALL_SYSTEMS,
    seeds: int = 2,
    **supervision,
) -> FigureData:
    """Regenerate one figure of :data:`FIGURE_SPECS`: the one-figure
    campaign (``xs`` overrides the spec's default axis)."""
    return run_campaign(
        base, seeds, [name], systems, None if xs is None else {name: xs},
        **supervision,
    ).figures[name]


def campaign_report(result: CampaignResult) -> str:
    """A markdown report with one section and table per figure."""
    base = result.base
    lines = [
        "# REFER evaluation campaign",
        "",
        "Regenerated with "
        f"`sim_time={base.sim_time:g}s`, `warmup={base.warmup:g}s`, "
        f"`rate={base.rate_pps:g} pkt/s/source`, "
        f"`{base.sensor_count} sensors`, `seeds={result.seeds}`.",
        "",
    ]
    for name, data in result.figures.items():
        lines.append(f"## {data.figure} — {data.title}")
        lines.append("")
        lines.append("```")
        lines.append(format_figure(data))
        lines.append("```")
        lines.append("")
    return "\n".join(lines)

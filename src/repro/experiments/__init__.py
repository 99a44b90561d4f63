"""Experiment harness: scenario config, workload, metrics, runner, figures."""

from repro.experiments.config import FaultConfig, ScenarioConfig
from repro.experiments.metrics import MetricsCollector
from repro.experiments.runner import SYSTEMS, RunResult, run_scenario
from repro.experiments.workload import CbrWorkload
from repro.experiments.figures import FIGURE_SPECS, FigureData, SeriesPoint
from repro.experiments.report import format_figure
from repro.experiments.journal import CampaignJournal, spec_fingerprint
from repro.experiments.parallel import (
    CampaignSupervisor,
    FailedJob,
    RetryPolicy,
)
from repro.experiments.campaign import run_campaign, run_figure

__all__ = [
    "CampaignJournal",
    "CampaignSupervisor",
    "FailedJob",
    "RetryPolicy",
    "spec_fingerprint",
    "FaultConfig",
    "ScenarioConfig",
    "MetricsCollector",
    "SYSTEMS",
    "RunResult",
    "run_scenario",
    "CbrWorkload",
    "FIGURE_SPECS",
    "FigureData",
    "SeriesPoint",
    "run_campaign",
    "run_figure",
    "format_figure",
]

"""Shared plumbing for the figure-regeneration benchmarks.

Every bench:

* reads its effort knobs from the environment — the whole list, five
  variables: ``REFER_BENCH_SEEDS`` (default 2; a bench whose asserted
  means two seeds do not resolve sets a floor in its file),
  ``REFER_BENCH_SIM_TIME`` (default 30 s measured),
  ``REFER_BENCH_RATE`` (default 12 packets/s/source),
  ``REFER_BENCH_WORKERS`` (default 0 = the jobs run in this process;
  >0 = that many spawned workers, same numbers) and
  ``REFER_BENCH_FULL=1`` (unlocks the 10k-sensor point of
  ``bench_engine_scaling.py``); everything else a bench needs is a
  constant in its file;
* regenerates one evaluation figure via :func:`bench_figure`
  (``repro.experiments.campaign.run_figure`` at those knobs);
* prints the series table (also saved under ``benchmarks/results/``,
  with a machine-readable ``BENCH_<name>.json`` twin) so the rows the
  paper plots can be read off the bench output or scraped by tooling;
* asserts the figure's qualitative shape (who wins, what grows).

Point the knobs higher (e.g. ``REFER_BENCH_SEEDS=5
REFER_BENCH_SIM_TIME=120``) for tighter confidence intervals; the
defaults keep a full ``pytest benchmarks/ --benchmark-only`` run in the
tens of minutes on a laptop.
"""

from __future__ import annotations

import json
import os
import pathlib

from repro.experiments.campaign import run_figure
from repro.experiments.config import ScenarioConfig
from repro.experiments.figures import FigureData
from repro.experiments.report import format_figure

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def bench_seeds() -> int:
    return int(os.environ.get("REFER_BENCH_SEEDS", "2"))


def bench_workers() -> int:
    """Worker processes the benches' grids run in (0 = in-process)."""
    return int(os.environ.get("REFER_BENCH_WORKERS", "0"))


def bench_base_config() -> ScenarioConfig:
    sim_time = float(os.environ.get("REFER_BENCH_SIM_TIME", "30"))
    rate = float(os.environ.get("REFER_BENCH_RATE", "12"))
    return ScenarioConfig(
        sim_time=sim_time,
        warmup=max(2.0, sim_time / 10.0),
        rate_pps=rate,
    )


def bench_figure(name: str, xs, seeds=None) -> FigureData:
    """Regenerate figure ``name`` over ``xs`` at the bench's knobs
    (``seeds=None``: :func:`bench_seeds`)."""
    return run_figure(
        name,
        bench_base_config(),
        xs,
        seeds=bench_seeds() if seeds is None else seeds,
        workers=bench_workers(),
    )


def figure_to_dict(data: FigureData) -> dict:
    """The JSON-serialisable form of one regenerated figure."""
    return {
        "figure": data.figure,
        "title": data.title,
        "xlabel": data.xlabel,
        "ylabel": data.ylabel,
        "series": {
            system: [
                {
                    "x": p.x,
                    "mean": p.mean,
                    "ci95": p.ci95,
                    "samples": p.samples,
                }
                for p in points
            ]
            for system, points in data.series.items()
        },
    }


def emit(data: FigureData, filename: str) -> str:
    """Render, persist and print one regenerated figure.

    Writes the human table to ``results/<filename>`` and a
    machine-readable twin to ``results/BENCH_<stem>.json`` (sorted
    keys, so reruns of identical data are byte-identical).
    """
    table = format_figure(data)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / filename).write_text(table + "\n", encoding="utf-8")
    stem = pathlib.Path(filename).stem
    (RESULTS_DIR / f"BENCH_{stem}.json").write_text(
        json.dumps(figure_to_dict(data), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print("\n" + table)
    return table


def series_values(data: FigureData, system: str):
    return [p.mean for p in data.series[system]]

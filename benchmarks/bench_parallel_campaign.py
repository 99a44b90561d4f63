"""Parallel-campaign gate: the worker pool must earn its processes.

One fig4 campaign grid (4 systems x sweep points x seeds), run twice
through the one campaign path (:func:`repro.experiments.campaign.run_campaign`):
once with the jobs in this process (``workers=0``) and once in
``WORKERS`` spawned workers.  The gate is twofold:

* **identical output** — the pooled figure must equal the in-process
  figure exactly (the merge is keyed on job identity, so process
  scheduling cannot leak into the numbers);
* **speed** — wall-clock speedup must be at least ``GATE`` at
  ``WORKERS`` workers.  Skipped on hosts with fewer CPUs than workers,
  where the pool cannot physically win.
"""

import json
import os
import time

import pytest

from repro.experiments.campaign import run_campaign
from repro.experiments.config import ScenarioConfig

from _common import RESULTS_DIR

#: Measured seconds per scenario: long enough that one job amortises
#: its worker spawn + import.
SIM_TIME = 12.0
POINTS = (2.0, 6.0)      # fig4 sweep points
SEEDS = 1
WORKERS = 4
GATE = 1.8               # speedup floor


def _base():
    return ScenarioConfig(
        sim_time=SIM_TIME,
        warmup=max(2.0, SIM_TIME / 10.0),
        rate_pps=8.0,
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < WORKERS,
    reason=f"parallel speedup gate needs >= {WORKERS} CPUs",
)
def test_pool_speedup_gate():
    base = _base()
    kwargs = dict(seeds=SEEDS, figures=["fig4"], sweeps={"fig4": POINTS})

    start = time.perf_counter()
    serial = run_campaign(base, workers=0, **kwargs)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_campaign(base, workers=WORKERS, **kwargs)
    parallel_s = time.perf_counter() - start

    assert parallel.failed_jobs == ()
    assert parallel.figures["fig4"] == serial.figures["fig4"], (
        "parallel campaign perturbed the merged figure"
    )

    speedup = serial_s / parallel_s
    jobs = len(serial.figures["fig4"].series) * len(POINTS) * SEEDS
    table = "\n".join(
        [
            "parallel campaign: fig4 grid, serial vs %d workers "
            "(%d jobs, sim_time=%gs)" % (WORKERS, jobs, SIM_TIME),
            "",
            "  serial    %8.2f s" % serial_s,
            "  parallel  %8.2f s" % parallel_s,
            "  speedup   %8.2fx  (gate %.1fx)" % (speedup, GATE),
            "  merged figure byte-identical to serial",
        ]
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "campaign_pool.txt").write_text(
        table + "\n", encoding="utf-8"
    )
    (RESULTS_DIR / "BENCH_campaign_pool.json").write_text(
        json.dumps(
            {
                "gate": GATE,
                "workers": WORKERS,
                "jobs": jobs,
                "sim_time_s": SIM_TIME,
                "serial_s": serial_s,
                "parallel_s": parallel_s,
                "speedup": speedup,
                "identical": True,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    print("\n" + table)
    assert speedup >= GATE, (
        f"parallel campaign only {speedup:.2f}x the serial loop "
        f"at {WORKERS} workers (gate {GATE:.1f}x)"
    )

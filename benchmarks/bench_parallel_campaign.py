"""Parallel-campaign gate: the supervisor must earn its processes.

One fig4 campaign grid (4 systems x sweep points x seeds), run twice:
once through the classic in-process serial loop and once through the
supervised worker pool (:mod:`repro.experiments.parallel`) at
``REFER_BENCH_PAR_WORKERS`` workers.  The gate is twofold:

* **identical output** — the merged parallel figure must equal the
  serial figure exactly (the merge is keyed on job identity, so
  process scheduling cannot leak into the numbers);
* **speed** — wall-clock speedup must be at least
  ``REFER_BENCH_PAR_GATE`` (default 1.8x) at 4 workers.  Skipped on
  hosts with fewer than 4 CPUs, where the pool cannot physically win.

Knobs:

* ``REFER_BENCH_PAR_SIM_TIME`` measured seconds per scenario (default
  12; long enough that one job amortises its worker spawn + import)
* ``REFER_BENCH_PAR_POINTS``   fig4 sweep points (default ``2,6``)
* ``REFER_BENCH_PAR_SEEDS``    seeds per point (default 1)
* ``REFER_BENCH_PAR_WORKERS``  pool size (default 4)
* ``REFER_BENCH_PAR_GATE``     speedup floor (default 1.8)
"""

import json
import os
import time

import pytest

from repro.experiments.campaign import run_campaign
from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import parallel_campaign

from _common import RESULTS_DIR

SIM_TIME = float(os.environ.get("REFER_BENCH_PAR_SIM_TIME", "12"))
POINTS = tuple(
    float(p)
    for p in os.environ.get("REFER_BENCH_PAR_POINTS", "2,6").split(",")
)
SEEDS = int(os.environ.get("REFER_BENCH_PAR_SEEDS", "1"))
WORKERS = int(os.environ.get("REFER_BENCH_PAR_WORKERS", "4"))
GATE = float(os.environ.get("REFER_BENCH_PAR_GATE", "1.8"))


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
def test_parallel_campaign_speedup_gate():
    base = _base()
    kwargs = dict(seeds=SEEDS, figures=["fig4"], sweeps={"fig4": POINTS})

    start = time.perf_counter()
    serial = run_campaign(base, **kwargs)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = parallel_campaign(base, workers=WORKERS, **kwargs)
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
    (RESULTS_DIR / "parallel_campaign.txt").write_text(
        table + "\n", encoding="utf-8"
    )
    (RESULTS_DIR / "BENCH_parallel_campaign.json").write_text(
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

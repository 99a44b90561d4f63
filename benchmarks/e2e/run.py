"""End-to-end benchmark of ``run_scenario``: one command, every metric.

    python3 benchmarks/e2e/run.py                       # all four workloads
    python3 benchmarks/e2e/run.py --workload refer_build --seed 3 \
        --seconds 20 --trace 0                          # one run, as the driver does

With ``--workload`` the process measures that workload itself and
prints one JSON object as its last line.  Without it, the four
workloads run one after another, each in a fresh child process, first
untraced (end-to-end metrics) and then traced (per-layer metrics);
never two children at once, because the box has two cores.

README.md in this directory defines every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import functools
import hashlib
import heapq
import json
import math
import pathlib
import pstats
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterator, List, Optional, Sequence

HERE = pathlib.Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402  (puts src/ on sys.path)

from repro.experiments import runner  # noqa: E402

REPRO_ROOT = workloads.SRC / "repro"
SPEC_PATH = HERE.parents[1] / "BENCHMARK.json"

#: The ``RunResult`` fields that make up a run's simulated outcome;
#: the same nine the engine goldens compare.
METRIC_FIELDS = (
    "throughput_bps",
    "mean_delay_s",
    "comm_energy_j",
    "construction_energy_j",
    "generated",
    "delivered_qos",
    "delivered_total",
    "dropped",
    "flood_comm_energy_j",
)

#: Simulated seconds past generation end that ``run_scenario`` drains.
DRAIN_S = 2.0

#: CPU-seconds one repetition of each workload costs on the reference
#: box (with its slow phases: calibrated, they cost a quarter less);
#: ``--seconds`` divided by this fixes the repetition count, so
#: the work done -- and with it every simulated statistic -- depends on
#: the arguments alone, never on how fast the host happens to be.
NOMINAL_S = {
    "refer_steady": 3.5,
    "refer_build": 4.0,
    "baselines_flood": 3.5,
    "refer_stress": 3.5,
}

#: CPU-seconds :func:`spin` takes on the reference box at full speed.
SPIN_REFERENCE_S = 0.050

#: Workloads on which REFER must spend nothing on route floods
#: (it repairs locally; the paper's claim).
NO_FLOOD = ("refer_steady", "refer_build")

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "sim_rate_x": "x",
    "peak_rss_mb": "MiB",
    "qos_delivery_ratio": "ratio",
    "mean_delay_ms": "ms",
    "comm_energy_j": "J",
    "construction_energy_j": "J",
}

BASELINE_STEPS = {
    "baselines.datree.run_s": "DaTree",
    "baselines.ddear.run_s": "D-DEAR",
    "baselines.kautz_overlay.run_s": "Kautz-overlay",
}


def repetitions(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_S[workload]))


def scenario_seed(seed: int, repetition: int) -> int:
    """Each repetition simulates its own deployment, drawn from ``seed``."""
    return seed * 1000 + repetition


# -- measuring one repetition -------------------------------------------------


def spin() -> float:
    """CPU-seconds a fixed reference kernel takes right now.

    The shared box runs the same pure-python work anywhere between 1x
    and 2x its best speed, in phases that last seconds to minutes, so
    raw CPU-seconds of one deterministic scenario spread by 25-40 %.
    Timing this kernel (dict, float, heap and tuple work, like the
    simulator's) before and after each repetition measures the host's
    speed at that moment; dividing it out leaves the program's cost.
    The kernel belongs to the harness and never calls into ``repro``,
    so a faster program cannot make it faster.
    """
    start = time.process_time()
    heap: list = []
    table: Dict[int, float] = {}
    total = 0.0
    for i in range(60_000):
        x = (i * 7919) % 1009
        table[x] = table.get(x, 0.0) + math.hypot(x, i & 255)
        heapq.heappush(heap, (x, i))
        if i & 1:
            total += heapq.heappop(heap)[0]
    return time.process_time() - start


def slowdown(before: float, after: float) -> float:
    """Host speed around one repetition: 1.0 is the reference box at
    full speed, 2.0 a host that takes twice as long for the same work."""
    return (before + after) / (2.0 * SPIN_REFERENCE_S)


@contextlib.contextmanager
def build_clock() -> Iterator[List[float]]:
    """Stamp ``process_time`` at the return of every ``<System>.build()``.

    This is the only patch the untraced run carries: ``run_scenario``
    does not expose where construction ends, and ``setup_s`` needs it.
    """
    stamps: List[float] = []
    originals = {cls: cls.build for cls in set(runner.SYSTEMS.values())}

    def timed(build):
        @functools.wraps(build)
        def wrapper(self):
            build(self)
            stamps.append(time.process_time())

        return wrapper

    for cls, build in originals.items():
        cls.build = timed(build)
    try:
        yield stamps
    finally:
        for cls, build in originals.items():
            cls.build = build


def run_steps(steps: Sequence[workloads.Step], stamps: List[float]) -> List[dict]:
    """Run the steps back to back; one row of timings and fields each."""
    rows = []
    for system, config in steps:
        del stamps[:]
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        result = runner.run_scenario(system, config)
        cpu1 = time.process_time()
        wall1 = time.perf_counter()
        rows.append({
            "system": system,
            "run_s": cpu1 - cpu0,
            "cpu_s": cpu1 - cpu0,
            "wall_s": wall1 - wall0,
            "setup_s": stamps[0] - cpu0,
            "sim_s": config.end_time + DRAIN_S,
            "fields": {f: getattr(result, f) for f in METRIC_FIELDS},
        })
    return rows


def calibrate(rows: Sequence[dict], host_slowdown: float) -> List[dict]:
    """The rows with ``run_s`` and ``setup_s`` in calibrated seconds:
    CPU-seconds divided by the host's slowdown.  ``cpu_s`` stays raw."""
    return [
        dict(
            row,
            run_s=row["run_s"] / host_slowdown,
            setup_s=row["setup_s"] / host_slowdown,
        )
        for row in rows
    ]


def digest(rows: Sequence[dict]) -> str:
    """SHA-256 over the simulated outcome of every step, in order."""
    h = hashlib.sha256()
    for row in rows:
        for name in METRIC_FIELDS:
            h.update(f"{row['system']}:{name}={row['fields'][name]!r}\n".encode())
    return h.hexdigest()


def check(workload: str, rows: Sequence[dict]) -> List[str]:
    """The output checks; returns one message per violated invariant."""
    errors = []
    for row in rows:
        f, who = row["fields"], f"{workload}/{row['system']}"
        if f["delivered_qos"] > f["delivered_total"]:
            errors.append(f"{who}: delivered_qos > delivered_total")
        if f["delivered_total"] + f["dropped"] > f["generated"]:
            errors.append(f"{who}: delivered + dropped > generated")
        if workload in NO_FLOOD and f["flood_comm_energy_j"] != 0:
            errors.append(f"{who}: REFER spent energy on floods")
    return errors


# -- summarising --------------------------------------------------------------


def pool_packets(parts: Sequence[tuple]) -> dict:
    """Pool ``(generated, delivered_qos, mean_delay_ms)`` triples over
    packets, so a part that delivers more weighs more."""
    generated = sum(g for g, _, _ in parts)
    delivered = sum(d for _, d, _ in parts)
    delay_sum = sum(d * delay for _, d, delay in parts)
    return {
        "generated": generated,
        "delivered_qos": delivered,
        "qos_delivery_ratio": delivered / generated if generated else 0.0,
        "mean_delay_ms": delay_sum / delivered if delivered else 0.0,
    }


def pooled(rows: Sequence[dict]) -> dict:
    """Combine the step rows of one repetition: times and energies add,
    ratios and delay pool over packets."""
    total = {
        key: sum(row[key] for row in rows)
        for key in ("run_s", "cpu_s", "wall_s", "setup_s", "sim_s")
    }
    fields = [row["fields"] for row in rows]
    total.update(
        pool_packets([
            (f["generated"], f["delivered_qos"], 1000.0 * f["mean_delay_s"])
            for f in fields
        ]),
        steps=len(rows),
        sim_rate_x=total["sim_s"] / (total["run_s"] - total["setup_s"]),
        comm_energy_j=sum(f["comm_energy_j"] for f in fields),
        construction_energy_j=sum(f["construction_energy_j"] for f in fields),
    )
    return total


def spread(values: Sequence[float]) -> dict:
    """Best (lowest), median, inter-quartile range and count."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        iqr = q3 - q1
    else:
        iqr = 0.0
    return {
        "best": ordered[0],
        "worst": ordered[-1],
        "median": statistics.median(ordered),
        "iqr": iqr,
        "n": len(ordered),
    }


def end_to_end(samples: Sequence[dict], peak_rss_mb: float) -> Dict[str, float]:
    """The eight end-to-end metrics from one repetition's ``pooled`` each.

    Repetitions simulate different deployments, so timings take the
    median repetition and simulated statistics pool over all of them.
    """
    packets = pool_packets([
        (s["generated"], s["delivered_qos"], s["mean_delay_ms"]) for s in samples
    ])
    return {
        "run_s": statistics.median(s["run_s"] for s in samples),
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "sim_rate_x": statistics.median(s["sim_rate_x"] for s in samples),
        "peak_rss_mb": peak_rss_mb,
        "qos_delivery_ratio": packets["qos_delivery_ratio"],
        "mean_delay_ms": packets["mean_delay_ms"],
        "comm_energy_j": statistics.fmean(s["comm_energy_j"] for s in samples),
        "construction_energy_j": statistics.fmean(
            s["construction_energy_j"] for s in samples
        ),
    }


def per_layer(
    stats: layers.StatsTable,
    generated: int,
    traced_run_s: float,
    untraced_rows: Sequence[dict],
) -> tuple:
    """The per-layer metrics, ``name -> (value or None, unit)``, and the
    ``src/repro`` files that ran without a layer of their own."""
    table = layers.aggregate(stats, REPRO_ROOT)
    out: Dict[str, tuple] = {}
    for layer, bucket in table["layers"].items():
        bucket = bucket or {"self_s": None, "calls": None}
        out[f"{layer}.self_s"] = (bucket["self_s"], "s")
        out[f"{layer}.calls"] = (bucket["calls"], "count")
    counters = table["counters"]
    for name, calls in counters.items():
        out[name] = (calls, "count")

    def per_packet(calls: Optional[int]) -> Optional[float]:
        return None if calls is None else calls / generated

    out["py.calls_m"] = (table["total_calls"] / 1e6, "Mcalls")
    out["sim.events_per_packet"] = (per_packet(counters["sim.events"]), "1/packet")
    out["net.mobility.positions_per_packet"] = (
        per_packet(counters["net.mobility.position_calls"]), "1/packet",
    )
    untraced_run_s = sum(row["run_s"] for row in untraced_rows)
    out["trace.overhead_x"] = (traced_run_s / untraced_run_s, "x")
    by_system = {row["system"]: row["run_s"] for row in untraced_rows}
    for name, system in BASELINE_STEPS.items():
        # 0 on the REFER workloads, which have no such step.
        out[name] = (by_system.get(system, 0.0), "s")
    return out, table["unmapped_files"]


# -- one workload in this process ---------------------------------------------


def warm_up(seed: int, stamps: List[float]) -> List[str]:
    """Fill import and interned-table caches; also the determinism
    check: the same tiny scenario twice must give the same digest."""
    step = [workloads.warmup_step(seed)]
    first, second = digest(run_steps(step, stamps)), digest(run_steps(step, stamps))
    return [] if first == second else ["warm-up: same seed, different sim_digest"]


def measure(workload: str, seed: int, seconds: float) -> dict:
    """The untraced run: ``repetitions`` timed repetitions."""
    errors, samples, digests = [], [], []
    with build_clock() as stamps:
        errors += warm_up(seed, stamps)
        spun = spin()
        for rep in range(repetitions(workload, seconds)):
            rows = run_steps(workloads.build(workload, scenario_seed(seed, rep)), stamps)
            before, spun = spun, spin()
            errors += check(workload, rows)
            samples.append(pooled(calibrate(rows, slowdown(before, spun))))
            digests.append(digest(rows))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = end_to_end(samples, peak_rss_mb)
    if workload == "refer_steady" and values["qos_delivery_ratio"] < 0.99:
        errors.append(f"{workload}: qos_delivery_ratio below 0.99")
    for name in ("run_s", "setup_s", "sim_rate_x", "cpu_s", "wall_s"):
        s = spread([sample[name] for sample in samples])
        print(
            f"# {workload} {name}: median {s['median']:.4f} best {s['best']:.4f} "
            f"worst {s['worst']:.4f} iqr {s['iqr']:.4f} n={s['n']}"
        )
    return {
        "errors": errors,
        "attempted": sum(sample["steps"] for sample in samples),
        "digests": {
            "sim_digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
            "sim_digest_rep0": digests[0],
        },
        "metrics": {
            name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()
        },
    }


def trace(workload: str, seed: int) -> dict:
    """The traced run: repetition 0 once plain, once under cProfile."""
    steps = workloads.build(workload, scenario_seed(seed, 0))
    with build_clock() as stamps:
        errors = warm_up(seed, stamps)
        spins = [spin()]
        untraced = run_steps(steps, stamps)
        spins.append(spin())
        profile = cProfile.Profile()
        profile.enable()
        traced = run_steps(steps, stamps)
        profile.disable()
        spins.append(spin())
    errors += check(workload, traced)
    if digest(traced) != digest(untraced):
        errors.append(f"{workload}: traced sim_digest differs from untraced")
    traced_total = pooled(calibrate(traced, slowdown(*spins[1:])))
    metrics, unmapped = per_layer(
        pstats.Stats(profile).stats,
        generated=traced_total["generated"],
        traced_run_s=traced_total["run_s"],
        untraced_rows=calibrate(untraced, slowdown(*spins[:2])),
    )
    print(f"# {workload} trace.unmapped_files: {unmapped}")
    return {
        "errors": errors,
        "attempted": 2 * len(steps),
        "digests": {"sim_digest_rep0": digest(traced)},
        "metrics": metrics,
    }


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> int:
    outcome = trace(workload, seed) if traced else measure(workload, seed, seconds)
    for name, (value, unit) in outcome["metrics"].items():
        print(f"{workload} {name} {value!r} {unit}")
    for name, value in outcome["digests"].items():
        print(f"{workload} {name} {value}")
    for error in outcome["errors"]:
        print(f"CHECK FAILED {error}")
    print(json.dumps({
        "correct": not outcome["errors"],
        "attempted": outcome["attempted"],
        "failed": len(outcome["errors"]),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome["metrics"].items()
        },
    }))
    return 1 if outcome["errors"] else 0


# -- all workloads, one child each --------------------------------------------


def run_child(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One run in a fresh process: its output, exit code, result line
    and ``sim_digest*`` lines."""
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(traced)),
        ],
        stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if done.returncode in (0, 1) and lines else None
    digests = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and parts[1].startswith("sim_digest"):
            digests[parts[1]] = parts[2]
    return {
        "stdout": done.stdout,
        "returncode": done.returncode,
        "result": result,
        "digests": digests,
    }


def run_all(seed: int, seconds: float) -> int:
    status = 0
    for workload in workloads.WORKLOADS:
        for traced in (False, True):
            child = run_child(workload, seed, seconds, traced)
            # The result line is for the driver; the lines above it
            # already name every metric.
            print("\n".join(child["stdout"].splitlines()[:-1]), flush=True)
            status = status or child["returncode"]
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float,
        help="how long one run measures (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads(SPEC_PATH.read_text("utf-8"))["run_seconds"]
    if args.workload is None:
        return run_all(args.seed, seconds)
    return run_workload(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

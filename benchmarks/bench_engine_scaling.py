"""Engine scaling gate: the fast engine must earn its keep, exactly.

The engine overhaul (calendar queue + interned Kautz IDs + pooled
packets, :class:`~repro.sim.engine.EngineConfig`) promises two things:

* **speed** — draining the event set out of the calendar queue is
  O(1) per event against the heap's O(log n), so event *dispatch*
  throughput must be at least ``REFER_BENCH_ENGINE_GATE`` (default 3x)
  the heap's at n = 6400 queued events and beyond.  (Push throughput
  is deliberately *not* gated: heap push on random keys is ~O(1)
  expected, so the calendar only wins on the pop side — that is where
  the simulator spends its time.)
* **nothing else** — a fast-engine run must be byte-identical to the
  reference engine, and must not cost more memory: peak traced
  allocation of a pooled run is gated at 1.10x the reference run's.

Knobs:

* ``REFER_BENCH_ENGINE_SIZES``   queue sizes for the throughput sweep
  (default ``1600,6400,10000``; the >=3x gate applies at sizes >= 6400)
* ``REFER_BENCH_ENGINE_SENSORS`` sensor count for the scenario-level
  byte-equality + peak-alloc comparison (default 1600)
* ``REFER_BENCH_ENGINE_REPEATS`` best-of repeats (default 5)
* ``REFER_BENCH_ENGINE_GATE``    dispatch-throughput ratio floor (3.0)
* ``REFER_BENCH_FULL=1``         unlock the 10k-sensor figure-8 point
"""

import gc
import os
import json
import random
import time
import tracemalloc

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.sim.calendar import CalendarQueue
from repro.sim.engine import EngineConfig
from repro.sim.events import EventQueue

from _common import RESULTS_DIR

SIZES = tuple(
    int(s)
    for s in os.environ.get(
        "REFER_BENCH_ENGINE_SIZES", "1600,6400,10000"
    ).split(",")
)
SENSORS = int(os.environ.get("REFER_BENCH_ENGINE_SENSORS", "1600"))
REPEATS = int(os.environ.get("REFER_BENCH_ENGINE_REPEATS", "5"))
GATE = float(os.environ.get("REFER_BENCH_ENGINE_GATE", "3.0"))
#: The >=GATE dispatch gate only applies from this queue size up; below
#: it the constant factors dominate and the ratio is reported, not gated.
GATE_FLOOR = 6400

#: Peak traced allocation of the fast engine vs the reference engine.
ALLOC_BUDGET = 1.10

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

BACKENDS = {"heap": EventQueue, "calendar": CalendarQueue}


def _noop():
    pass


def _times(size):
    """One fixed random workload per size, shared by both backends."""
    rng = random.Random(size)
    # Spread over [0, size/100): ~100 events per unit of simulated time,
    # the density a mid-size REFER run actually presents to the queue.
    return [rng.random() * (size / 100.0) for _ in range(size)]


def _pop_trace(queue_cls, times):
    """The (time, seq) pop order of one backend — untimed parity probe."""
    queue = queue_cls()
    for t in times:
        queue.push(t, _noop)
    trace = []
    while True:
        event = queue.pop()
        if event is None:
            break
        trace.append((event.time, event.seq))
    return trace


def _timed_push_drain(queue_cls, times):
    """(push seconds, drain seconds) for one bare push-all/pop-all pass.

    The drain loop does nothing but pop: any per-event work added here
    is a constant charged to both backends, which only compresses the
    O(log n) vs O(1) ratio this bench exists to measure.
    """
    gc.collect()
    queue = queue_cls()
    start = time.perf_counter()
    for t in times:
        queue.push(t, _noop)
    push_s = time.perf_counter() - start
    pop = queue.pop
    start = time.perf_counter()
    while pop() is not None:
        pass
    drain_s = time.perf_counter() - start
    return push_s, drain_s


def _timed_hold(queue_cls, times, ops):
    """Hold model: steady-state pop-one push-one at full population."""
    gc.collect()
    queue = queue_cls()
    for t in times:
        queue.push(t, _noop)
    rng = random.Random(1)
    start = time.perf_counter()
    for _ in range(ops):
        event = queue.pop()
        queue.push(event.time + rng.random(), _noop)
    hold_s = time.perf_counter() - start
    return hold_s


def test_dispatch_throughput_gate():
    rows = []
    gated = []
    for size in SIZES:
        times = _times(size)
        # The fast path must be indistinguishable through the queue API:
        # identical (time, seq) pop order, event for event.
        assert _pop_trace(CalendarQueue, times) == _pop_trace(
            EventQueue, times
        ), f"pop order diverged at n={size}"
        best = {name: [None, None] for name in BACKENDS}
        for _ in range(REPEATS):
            for name, cls in BACKENDS.items():
                push_s, drain_s = _timed_push_drain(cls, times)
                slot = best[name]
                slot[0] = push_s if slot[0] is None else min(slot[0], push_s)
                slot[1] = drain_s if slot[1] is None else min(slot[1], drain_s)
        hold = {
            name: _timed_hold(cls, times, 4 * size)
            for name, cls in BACKENDS.items()
        }
        ratio = best["heap"][1] / best["calendar"][1]
        rows.append(
            {
                "size": size,
                "heap_push_s": best["heap"][0],
                "heap_drain_s": best["heap"][1],
                "calendar_push_s": best["calendar"][0],
                "calendar_drain_s": best["calendar"][1],
                "dispatch_ratio": ratio,
                "hold_ratio": hold["heap"] / hold["calendar"],
                "calendar_drain_eps": size / best["calendar"][1],
                "heap_drain_eps": size / best["heap"][1],
            }
        )
        if size >= GATE_FLOOR:
            gated.append((size, ratio))

    lines = [
        "engine scaling: event dispatch, heap vs calendar "
        "(best of %d)" % REPEATS,
        "",
        "  %8s  %12s  %12s  %9s  %9s"
        % ("n", "heap ev/s", "calendar ev/s", "dispatch", "hold"),
    ]
    for row in rows:
        lines.append(
            "  %8d  %12.0f  %12.0f  %8.2fx  %8.2fx"
            % (
                row["size"],
                row["heap_drain_eps"],
                row["calendar_drain_eps"],
                row["dispatch_ratio"],
                row["hold_ratio"],
            )
        )
    table = "\n".join(lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "engine_scaling.txt").write_text(
        table + "\n", encoding="utf-8"
    )
    (RESULTS_DIR / "BENCH_engine_scaling.json").write_text(
        json.dumps(
            {"gate": GATE, "gate_floor": GATE_FLOOR, "rows": rows},
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    print("\n" + table)
    for size, ratio in gated:
        assert ratio >= GATE, (
            f"calendar dispatch only {ratio:.2f}x the heap at n={size} "
            f"(gate {GATE:.1f}x)"
        )


def _scenario(sensors):
    # Density-preserving growth (area ~ sqrt(n), anchored at the
    # n=2000 determinism golden's 500 m box).  Densifying the paper's
    # fixed 500 m area instead drowns the run in MAC contention
    # (~1200 neighbours per node at n=10k), which measures the radio
    # model, not the engine.
    return ScenarioConfig(
        seed=3,
        sensor_count=sensors,
        area_side=500.0 * (sensors / 2000.0) ** 0.5,
        sim_time=6.0,
        warmup=1.0,
        rate_pps=2.0,
    )


def _traced_run(config):
    gc.collect()
    tracemalloc.start()
    start = time.perf_counter()
    result = run_scenario("REFER", config)
    wall = time.perf_counter() - start
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, wall, peak


def test_fast_engine_identical_and_no_alloc_regression():
    """One real run per engine: same numbers, no memory regression.

    Wall times here are *not* gated (tracemalloc inflates both runs
    alike); the dispatch gate above is the performance contract.
    """
    base = _scenario(SENSORS)
    reference, ref_wall, ref_peak = _traced_run(
        base.with_(engine=EngineConfig.reference())
    )
    fast, fast_wall, fast_peak = _traced_run(
        base.with_(engine=EngineConfig.fast())
    )

    for field in METRIC_FIELDS:
        assert repr(getattr(reference, field)) == repr(
            getattr(fast, field)
        ), f"fast engine perturbed {field}"
    assert fast.generated > 0 and fast.delivered_total > 0

    table = "\n".join(
        [
            "engine scaling: REFER run, reference vs fast engine "
            "(%d sensors, traced)" % SENSORS,
            "",
            "  reference  %8.3f s   peak alloc %10.1f MiB"
            % (ref_wall, ref_peak / 2 ** 20),
            "  fast       %8.3f s   peak alloc %10.1f MiB"
            % (fast_wall, fast_peak / 2 ** 20),
            "  metrics    byte-identical across %d fields"
            % len(METRIC_FIELDS),
        ]
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "engine_scenario.txt").write_text(
        table + "\n", encoding="utf-8"
    )
    # JSON twin; the run it replaces stays in the file as "previous"
    # so the end-to-end trajectory is reviewable across PRs.
    twin = RESULTS_DIR / "BENCH_engine_scenario.json"
    record = {
        "sensors": SENSORS,
        "reference_wall_s": ref_wall,
        "fast_wall_s": fast_wall,
        "reference_peak_alloc_mib": round(ref_peak / 2 ** 20, 1),
        "fast_peak_alloc_mib": round(fast_peak / 2 ** 20, 1),
    }
    if twin.exists():
        previous = json.loads(twin.read_text(encoding="utf-8"))
        previous.pop("previous", None)
        record["previous"] = previous
    twin.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print("\n" + table)
    assert fast_peak <= ref_peak * ALLOC_BUDGET, (
        f"fast engine peak alloc {fast_peak / 2 ** 20:.1f} MiB exceeds "
        f"{ALLOC_BUDGET:.2f}x the reference "
        f"({ref_peak / 2 ** 20:.1f} MiB)"
    )


@pytest.mark.skipif(
    os.environ.get("REFER_BENCH_FULL") != "1",
    reason="10k-sensor point: set REFER_BENCH_FULL=1",
)
def test_figure8_point_at_10k_sensors():
    """The headline claim: a 10k-node figure-8 point on a laptop."""
    config = _scenario(10000)
    gc.collect()
    start = time.perf_counter()
    result = run_scenario(
        "REFER", config.with_(engine=EngineConfig.fast())
    )
    wall = time.perf_counter() - start
    delivered_fraction = (
        result.delivered_total / result.generated if result.generated else 0.0
    )
    table = "\n".join(
        [
            "engine scaling: 10k-sensor REFER point (fast engine)",
            "",
            "  wall time        %10.1f s" % wall,
            "  generated        %10d" % result.generated,
            "  delivered        %10d  (%.2f of generated)"
            % (result.delivered_total, delivered_fraction),
            "  qos ratio        %10.3f" % result.delivery_ratio,
            "  mean delay       %10.4f s" % result.mean_delay_s,
        ]
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "engine_10k_point.txt").write_text(
        table + "\n", encoding="utf-8"
    )
    print("\n" + table)
    assert result.generated > 0
    # Absolute delivery at this size is bounded by the paper's fixed
    # 5-actuator deployment stretched over the grown field, not by the
    # engine; completing the run with most packets delivered is the
    # claim this point makes.
    assert delivered_fraction > 0.5

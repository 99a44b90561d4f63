"""Telemetry overhead gates: microseconds per recorded event.

The telemetry design claims observation is cheap: the registry is
always on underneath (the stats views write through it either way), so
enabling telemetry only adds the flight recorder's per-hop appends and
the profiler's per-event dict bumps.  Deterministic tracing
(:mod:`repro.telemetry.tracing`) additionally buffers one event tuple
per dispatch/draw/lifecycle transition and folds them into the rolling
hash in batches, which must also stay cheap or nobody will leave
tracing on while hunting a divergence.

This bench runs the same REFER scenario with ``telemetry=None``,
``telemetry=TelemetryConfig()`` and telemetry+tracing, interleaved
within each of ``REPEATS`` rounds, and gates the **cost per event**,
the median over the rounds of the paired difference in CPU-seconds:

* ``(enabled - disabled) / flight events`` <= ``FLIGHT_EVENT_BUDGET_US``;
* ``(traced - enabled) / trace events`` <= ``TRACE_EVENT_BUDGET_US`` —
  the cost of tracing itself, everything else equal.

A ratio to the base run (the gate until PR 16: 1.05 / 1.10) tightens
every time the simulation itself gets faster — the same 17 ms of
recording was 3 % of a 0.56 s run and is 8 % of a 0.2 s one — so a
speed-up elsewhere could fail it.  The cost of recording one event
does not depend on how fast the rest of the run is.  Pairing within a
round cancels machine-load drift; the median discards the rounds a
noisy neighbour spoils.  The budgets were fixed from four sets of ten
paired rounds run as this file runs them (medians 1.5-1.7 us per
flight event, 1.7-2.0 us per trace event): 3.0 us each, 1.5x the worst
median seen.

The runs' *numbers* must also match exactly — the overhead gates are
meaningless if observation or tracing perturbs the simulation.
"""

import gc
import json
import statistics
import time

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.telemetry.config import TelemetryConfig
from repro.telemetry.tracing import TracingConfig

from _common import RESULTS_DIR

REPEATS = 10
SIM_TIME = 20.0
#: Microseconds of CPU one flight-recorder / trace event may cost.
FLIGHT_EVENT_BUDGET_US = 3.0
TRACE_EVENT_BUDGET_US = 3.0

#: Metric fields that must be identical across all three variants.
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


def bench_config():
    return ScenarioConfig(
        seed=11,
        sensor_count=100,
        sim_time=SIM_TIME,
        warmup=max(2.0, SIM_TIME / 10.0),
        rate_pps=12.0,
    )


def timed_run(config):
    # Start every timed pass from a collected heap: the previous run's
    # garbage otherwise triggers collections inside this run's window,
    # charged to whichever variant happens to run second.
    gc.collect()
    start = time.process_time()
    result = run_scenario("REFER", config)
    return time.process_time() - start, result


def test_telemetry_overhead_gate():
    base = bench_config()
    variants = {
        "disabled": base,
        "enabled": base.with_(telemetry=TelemetryConfig()),
        "traced": base.with_(
            telemetry=TelemetryConfig(tracing=TracingConfig())
        ),
    }
    # One untimed pass warms allocator arenas and import-time caches so
    # the first timed variant is not charged for them.
    timed_run(base)
    # Whatever the host process keeps alive (pytest and its plugins are
    # several hundred thousand objects) would otherwise be re-scanned by
    # every full collection the event tuples trigger, charging tracing
    # for the size of the test runner's heap.
    gc.collect()
    gc.freeze()
    order = list(variants)
    rounds = []
    results = {}
    for i in range(REPEATS):
        times = {}
        # Rotate the within-round order so no variant always runs
        # first (coldest) or last (warmest).
        for name in order[i % len(order):] + order[: i % len(order)]:
            times[name], results[name] = timed_run(variants[name])
        rounds.append(times)
    gc.unfreeze()

    for name in ("enabled", "traced"):
        for field in METRIC_FIELDS:
            assert repr(getattr(results["disabled"], field)) == repr(
                getattr(results[name], field)
            ), f"{name} telemetry perturbed {field}"
    assert results["disabled"].telemetry is None
    assert results["enabled"].telemetry is not None
    assert results["enabled"].telemetry.flight.journeys_started > 0
    trace = results["traced"].telemetry.trace
    assert trace is not None and trace.events_seen > 0

    best = {
        name: min(r[name] for r in rounds) for name in variants
    }
    flight_events = results["enabled"].telemetry.flight.events_recorded
    flight_us = statistics.median(
        1e6 * (r["enabled"] - r["disabled"]) / flight_events for r in rounds
    )
    trace_us = statistics.median(
        1e6 * (r["traced"] - r["enabled"]) / trace.events_seen for r in rounds
    )
    table = "\n".join(
        [
            "telemetry overhead (REFER, %d sensors, %.0f s measured,"
            " %d interleaved rounds, CPU seconds)"
            % (base.sensor_count, base.sim_time, REPEATS),
            "",
            "  disabled   %8.3f s" % best["disabled"],
            "  enabled    %8.3f s" % best["enabled"],
            "  traced     %8.3f s" % best["traced"],
            "  per flight event  %6.2f us   (budget %.1f, median paired round)"
            % (flight_us, FLIGHT_EVENT_BUDGET_US),
            "  per trace event   %6.2f us   (budget %.1f, median paired round)"
            % (trace_us, TRACE_EVENT_BUDGET_US),
            "  flight journeys   %d"
            % results["enabled"].telemetry.flight.journeys_started,
            "  flight events     %d" % flight_events,
            "  trace events      %d" % trace.events_seen,
            "  trace checkpoints %d" % len(trace.checkpoints),
        ]
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "telemetry_overhead.txt").write_text(
        table + "\n", encoding="utf-8"
    )
    (RESULTS_DIR / "BENCH_telemetry_overhead.json").write_text(
        json.dumps(
            {
                "bench": "telemetry_overhead",
                "sensors": base.sensor_count,
                "sim_time": base.sim_time,
                "repeats": REPEATS,
                "seconds": {name: best[name] for name in sorted(best)},
                "flight_event_us": flight_us,
                "trace_event_us": trace_us,
                "flight_event_budget_us": FLIGHT_EVENT_BUDGET_US,
                "trace_event_budget_us": TRACE_EVENT_BUDGET_US,
                "flight_events": flight_events,
                "trace_events": trace.events_seen,
                "trace_fingerprint": trace.fingerprint(),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    print("\n" + table)
    assert flight_us <= FLIGHT_EVENT_BUDGET_US, (
        f"observation costs {flight_us:.2f} us per flight event, "
        f"budget {FLIGHT_EVENT_BUDGET_US:.1f}"
    )
    assert trace_us <= TRACE_EVENT_BUDGET_US, (
        f"tracing costs {trace_us:.2f} us per trace event, "
        f"budget {TRACE_EVENT_BUDGET_US:.1f}"
    )

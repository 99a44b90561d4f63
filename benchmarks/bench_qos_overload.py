"""Overload sweep: graceful degradation with the QoS stack on vs off.

Drives the bursty heavy-tailed workload at 1x / 10x / 100x offered
load through REFER twice — once plain, once with the full QoS stack
(priority MAC, admission control, hop backpressure) — and reports the
alarm-class delivery ratio per point (saved under
``benchmarks/results/`` with a ``BENCH_qos_overload.json`` twin).

The headline claims under test:

* at 10x load the QoS stack keeps **alarm** delivery at >= 2x the
  unshaped network's (in exchange for shedding bulk traffic — that is
  the graceful part of the degradation);
* alarm deadline misses stay <= 5% at 10x with QoS on;
* the shaped overload run is byte-identical across repeats.

Effort knob: ``REFER_BENCH_SEEDS`` (default 2) seeds per point.  The
measured time is ``SIM_TIME`` below, not the 30 s figure default: the
100x point routes ~50k packets unshaped.
"""

from repro.experiments.config import ScenarioConfig
from repro.experiments.figures import FigureData, SeriesPoint
from repro.experiments.runner import run_scenario
from repro.qos import BurstyConfig, QosConfig
from repro.util.stats import confidence_interval_95

from _common import bench_seeds, emit

LOAD_MULTIPLIERS = (1.0, 10.0, 100.0)
SERIES_ON = "REFER (QoS on)"
SERIES_OFF = "REFER (QoS off)"
SIM_TIME = 8.0


def _base_config(seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        seed=seed,
        sensor_count=40,
        area_side=220.0,
        sim_time=SIM_TIME,
        warmup=2.0,
    )


def _overload_config(seed: int, mult: float, qos_on: bool) -> ScenarioConfig:
    return _base_config(seed).with_(
        qos=QosConfig() if qos_on else None,
        bursty=BurstyConfig(
            sources=10, peak_rate_pps=12.0, load_multiplier=mult
        ),
    )


def _class_stat(result, traffic_class):
    for stat in result.class_stats:
        if stat.traffic_class == traffic_class:
            return stat
    raise AssertionError(f"no {traffic_class} stats in {result.class_stats}")


def _fingerprint(result):
    return repr(
        (
            result.generated,
            result.delivered_total,
            result.dropped,
            result.throughput_bps,
            result.mean_delay_s,
            result.comm_energy_j,
            result.class_stats,
        )
    )


def test_qos_overload(benchmark):
    seeds = bench_seeds()

    def sweep():
        results = {}
        for qos_on, series in ((True, SERIES_ON), (False, SERIES_OFF)):
            for mult in LOAD_MULTIPLIERS:
                results[(series, mult)] = [
                    run_scenario(
                        "REFER", _overload_config(seed, mult, qos_on)
                    )
                    for seed in range(1, seeds + 1)
                ]
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    data = FigureData(
        figure="qos-overload",
        title="Alarm-class delivery under offered overload",
        xlabel="offered load multiplier",
        ylabel="alarm delivery ratio (within deadline)",
    )
    for series in (SERIES_ON, SERIES_OFF):
        points = []
        for mult in LOAD_MULTIPLIERS:
            ratios = [
                _class_stat(r, "alarm").delivery_ratio
                for r in results[(series, mult)]
            ]
            mean, ci = confidence_interval_95(ratios)
            points.append(
                SeriesPoint(x=mult, mean=mean, ci95=ci, samples=len(ratios))
            )
        data.series[series] = points
    emit(data, "qos_overload.txt")

    # Graceful degradation: at 10x the shaped network protects alarms
    # at >= 2x the unshaped delivery ratio, and misses few deadlines.
    shaped = data.value_at(SERIES_ON, 10.0)
    unshaped = data.value_at(SERIES_OFF, 10.0)
    assert shaped >= 2.0 * unshaped, (
        f"QoS on {shaped:.3f} vs off {unshaped:.3f} at 10x"
    )
    assert shaped >= 0.95
    for result in results[(SERIES_ON, 10.0)]:
        assert _class_stat(result, "alarm").deadline_miss_rate <= 0.05
    # At nominal (1x) load the stack is nearly free: alarms deliver
    # fully either way.
    assert data.value_at(SERIES_ON, 1.0) >= 0.95
    assert data.value_at(SERIES_OFF, 1.0) >= 0.95
    # The degradation is *graceful*: at 100x the unshaped network
    # collapses outright (alarms arrive late or not at all) while the
    # shaped one still lands a usable fraction of its alarms in time.
    shaped_extreme = data.value_at(SERIES_ON, 100.0)
    unshaped_extreme = data.value_at(SERIES_OFF, 100.0)
    assert shaped_extreme >= 10.0 * max(unshaped_extreme, 0.01)
    # The price is paid by the elastic class, not the urgent one.
    bulk_10x = _class_stat(results[(SERIES_ON, 10.0)][0], "bulk")
    alarm_10x = _class_stat(results[(SERIES_ON, 10.0)][0], "alarm")
    assert alarm_10x.delivery_ratio > bulk_10x.delivery_ratio

    # Determinism: the shaped overload run repeats byte-identically.
    first = results[(SERIES_ON, 10.0)][0]
    repeat = run_scenario("REFER", _overload_config(1, 10.0, True))
    assert _fingerprint(first) == _fingerprint(repeat)

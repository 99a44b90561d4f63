"""Unit tests of the end-to-end harness (``pytest benchmarks/e2e``).

Not part of tier-1: ``testpaths`` is ``tests``.  Everything here uses
synthetic inputs except one 50-sensor, 2 s run.
"""

import json
import pathlib

import pytest

import layers
import run
import selfcheck
import workloads


# -- layer mapper -------------------------------------------------------------


def test_every_source_file_maps_to_exactly_one_known_layer():
    files = layers.source_files(run.REPRO_ROOT)
    assert len(files) > 100
    for rel in files:
        assert layers.layer_of(rel) in layers.LAYERS
    # Every layer the table names is reached by some file on disk.
    reached = {layers.layer_of(rel) for rel in files}
    assert reached == set(layers.LAYERS) - {"py.builtins"}


@pytest.mark.parametrize(
    "rel, layer",
    [
        ("sim/calendar.py", "sim"),
        ("util/geometry.py", "net.mobility"),
        ("util/rng.py", "util"),
        ("net/spatial.py", "net.medium"),
        ("net/pool.py", "net.network"),
        ("core/embedding.py", "core.embedding"),
        ("core/cell.py", "core.other"),
        ("telemetry/flight.py", "telemetry"),
        ("net/failure.py", "other"),
        ("errors.py", "other"),
        ("brand_new/module.py", "other"),
        (None, "py.builtins"),
    ],
)
def test_layer_of(rel, layer):
    assert layers.layer_of(rel) == layer


def _fake_tree(tmp_path: pathlib.Path) -> pathlib.Path:
    root = tmp_path / "repro"
    for rel, body in {
        "sim/core.py": "class Simulator:\n    def step(self):\n        pass\n",
        "net/mobility.py": "def position(now):\n    pass\n",
        "net/medium.py": "def neighbors(a):\n    pass\n",
        "newpkg/thing.py": "def f():\n    pass\n",
    }.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body)
    return root


def _row(calls, self_s):
    return (calls, calls, self_s, self_s, {})


def test_aggregate_sums_by_layer_and_lists_unmapped_files(tmp_path):
    root = _fake_tree(tmp_path)
    stats = {
        (str(root / "sim/core.py"), 2, "step"): _row(7, 0.5),
        (str(root / "sim/core.py"), 9, "run_until"): _row(1, 0.25),
        (str(root / "net/mobility.py"), 1, "position"): _row(40, 1.0),
        (str(root / "newpkg/thing.py"), 1, "f"): _row(3, 0.125),
        ("~", 0, "<built-in method builtins.len>"): _row(100, 0.0625),
        ("/usr/lib/python3/heapq.py", 5, "heappush"): _row(10, 0.0625),
    }
    table = layers.aggregate(stats, root)
    assert table["layers"]["sim"] == {"self_s": 0.75, "calls": 8}
    assert table["layers"]["net.mobility"] == {"self_s": 1.0, "calls": 40}
    assert table["layers"]["other"] == {"self_s": 0.125, "calls": 3}
    assert table["layers"]["py.builtins"] == {"self_s": 0.125, "calls": 110}
    assert table["unmapped_files"] == ["newpkg/thing.py"]
    assert table["total_calls"] == 161
    assert table["counters"]["sim.events"] == 7
    assert table["counters"]["net.mobility.position_calls"] == 40


def test_missing_function_or_layer_is_null_not_zero(tmp_path):
    table = layers.aggregate({}, _fake_tree(tmp_path))
    # Defined but never called: zero.
    assert table["counters"]["net.medium.neighbor_queries"] == 0
    assert table["layers"]["net.medium"] == {"self_s": 0.0, "calls": 0}
    # ``can_transmit`` is not defined in the fake medium.py; no file of
    # the ``dht`` layer exists: gone, so null.
    assert table["counters"]["net.medium.can_transmit_calls"] is None
    assert table["layers"]["dht"] is None
    metrics, unmapped = run.per_layer(
        {}, generated=10, traced_run_s=2.0,
        untraced_rows=[{"system": "REFER", "run_s": 1.0}],
    )
    assert metrics["trace.overhead_x"] == (2.0, "x")
    assert metrics["baselines.datree.run_s"] == (0.0, "s")
    assert len(metrics) == 55 and unmapped == []


def test_per_layer_nulls_propagate_to_ratios(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "REPRO_ROOT", _fake_tree(tmp_path))
    metrics, _ = run.per_layer(
        {}, generated=10, traced_run_s=2.0,
        untraced_rows=[{"system": "REFER", "run_s": 1.0}],
    )
    assert metrics["dht.calls"] == (None, "count")
    assert metrics["dht.self_s"] == (None, "s")
    assert metrics["net.medium.can_transmit_calls"] == (None, "count")
    assert metrics["sim.events_per_packet"] == (0.0, "1/packet")


# -- best-of / median / IQR ---------------------------------------------------


def test_spread():
    s = run.spread([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (s["best"], s["worst"], s["median"], s["n"]) == (1.0, 5.0, 3.0, 5)
    assert s["iqr"] == 3.0   # quantiles(n=4) of 1..5 are 1.5, 3, 4.5
    assert run.spread([2.0])["iqr"] == 0.0
    assert run.spread([1.0, 3.0])["median"] == 2.0


def test_repetitions_follow_seconds_not_the_host():
    assert run.repetitions("refer_steady", 20) == 6
    assert run.repetitions("refer_build", 20) == 5
    assert run.repetitions("refer_build", 1) == 1


def test_calibration_divides_out_the_host_slowdown():
    assert run.slowdown(run.SPIN_REFERENCE_S, run.SPIN_REFERENCE_S) == 1.0
    assert run.slowdown(run.SPIN_REFERENCE_S, 3 * run.SPIN_REFERENCE_S) == 2.0
    row = _step("REFER", 3.0, 1.0, 100, 100, 0.010, 10.0, 1.0)
    (calibrated,) = run.calibrate([row], 2.0)
    assert (calibrated["run_s"], calibrated["setup_s"]) == (1.5, 0.5)
    assert calibrated["cpu_s"] == 3.0 and row["run_s"] == 3.0
    assert calibrated["fields"] == row["fields"]
    assert run.spin() > 0.0


# -- pooling and digest -------------------------------------------------------


def _step(system, run_s, setup_s, generated, delivered_qos, delay_s, comm, cons):
    fields = dict.fromkeys(run.METRIC_FIELDS, 0)
    fields.update(
        generated=generated, delivered_qos=delivered_qos,
        delivered_total=delivered_qos, mean_delay_s=delay_s,
        comm_energy_j=comm, construction_energy_j=cons,
    )
    return {
        "system": system, "run_s": run_s, "cpu_s": run_s, "wall_s": run_s,
        "setup_s": setup_s, "sim_s": 24.0, "fields": fields,
    }


def test_composite_pooling_sums_times_and_pools_ratios_over_packets():
    rows = [
        _step("DaTree", 1.0, 0.25, 100, 100, 0.010, 10.0, 1.0),
        _step("D-DEAR", 2.0, 0.25, 100, 50, 0.040, 20.0, 2.0),
        _step("Kautz-overlay", 4.0, 1.5, 200, 50, 0.020, 30.0, 4.0),
    ]
    p = run.pooled(rows)
    assert p["run_s"] == 7.0 and p["setup_s"] == 2.0
    assert p["sim_rate_x"] == 72.0 / 5.0
    assert p["qos_delivery_ratio"] == 200 / 400
    # (100*10 + 50*40 + 50*20) ms / 200 packets, not the mean of means.
    assert p["mean_delay_ms"] == pytest.approx(20.0)
    assert p["comm_energy_j"] == 60.0 and p["construction_energy_j"] == 7.0


def test_end_to_end_takes_median_times_and_pools_statistics():
    samples = [
        run.pooled([_step("REFER", 1.0, 0.5, 100, 100, 0.010, 10.0, 1.0)]),
        run.pooled([_step("REFER", 9.0, 0.5, 100, 90, 0.020, 30.0, 3.0)]),
        run.pooled([_step("REFER", 2.0, 0.5, 100, 80, 0.030, 20.0, 2.0)]),
    ]
    values = run.end_to_end(samples, peak_rss_mb=50.0)
    assert values["run_s"] == 2.0
    assert values["sim_rate_x"] == 24.0 / 1.5
    assert values["qos_delivery_ratio"] == 270 / 300
    assert values["mean_delay_ms"] == pytest.approx((1000 + 1800 + 2400) / 270)
    assert values["comm_energy_j"] == 20.0
    assert set(values) == set(run.END_TO_END_UNITS)


def test_digest_covers_every_field_and_step_order():
    a = _step("DaTree", 1.0, 0.5, 100, 100, 0.010, 10.0, 1.0)
    b = _step("D-DEAR", 2.0, 0.5, 100, 50, 0.040, 20.0, 2.0)
    base = run.digest([a, b])
    assert len(base) == 64 and base == run.digest([a, b])
    assert run.digest([b, a]) != base
    slower = dict(a, run_s=99.0)          # host time is not in the digest
    assert run.digest([slower, b]) == base
    for name in run.METRIC_FIELDS:
        changed = dict(a, fields=dict(a["fields"], **{name: -1}))
        assert run.digest([changed, b]) != base, name


def test_checks_name_each_violated_invariant():
    good = _step("REFER", 1.0, 0.5, 100, 100, 0.010, 10.0, 1.0)
    assert run.check("refer_steady", [good]) == []
    bad = dict(good, fields=dict(
        good["fields"], delivered_qos=90, delivered_total=80, dropped=30,
        flood_comm_energy_j=1.0,
    ))
    errors = run.check("refer_steady", [bad])
    assert len(errors) == 3
    # Floods are what the baselines are expected to show.
    assert len(run.check("baselines_flood", [bad])) == 2


# -- self-check comparison ----------------------------------------------------


def test_selfcheck_compare_bounds_timings_and_pins_statistics():
    first = {
        "run_s": {"value": 10.0, "unit": "s"},
        "mean_delay_ms": {"value": 7.5, "unit": "ms"},
        "sim.calls": {"value": 12, "unit": "count"},
        "sim.self_s": {"value": 1.0, "unit": "s"},
    }
    second = {
        "run_s": {"value": 10.4, "unit": "s"},
        "mean_delay_ms": {"value": 7.5, "unit": "ms"},
        "sim.calls": {"value": 12, "unit": "count"},
        "sim.self_s": {"value": 3.0, "unit": "s"},
    }
    bounds = {"run_s": 0.05, "mean_delay_ms": 0.01}
    assert not any(
        line.startswith("FAIL")
        for line in selfcheck.compare(first, second, bounds)
    )
    second["run_s"]["value"] = 10.6
    second["sim.calls"]["value"] = 13
    second["mean_delay_ms"]["value"] = 7.5000001
    failures = [
        line.split()[1].rstrip(":")
        for line in selfcheck.compare(first, second, bounds)
        if line.startswith("FAIL")
    ]
    assert failures == ["run_s", "mean_delay_ms", "sim.calls"]


# -- BENCHMARK.json -----------------------------------------------------------


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads(run.SPEC_PATH.read_text("utf-8"))
    assert spec["paths"] == ["benchmarks/e2e"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert max(m["bound"] for m in spec["end_to_end"]) <= 0.25
    reported, _ = run.per_layer(
        {}, generated=1, traced_run_s=1.0,
        untraced_rows=[{"system": "REFER", "run_s": 1.0}],
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_value, unit) in reported.items()
    }


# -- workloads and one real run -----------------------------------------------


def test_workloads_are_pinned_functions_of_name_and_seed():
    assert list(workloads.WORKLOADS) == [
        "refer_steady", "refer_build", "baselines_flood", "refer_stress",
    ]
    for name in workloads.WORKLOADS:
        steps = workloads.build(name, 7)
        assert steps == workloads.build(name, 7)
        assert steps != workloads.build(name, 8)
        for _system, config in steps:
            assert config.seed == 7
            assert (config.rate_pps, config.packet_bytes) == (12.0, 1000)
    assert [s for s, _ in workloads.build("baselines_flood", 1)] == [
        "DaTree", "D-DEAR", "Kautz-overlay",
    ]
    with pytest.raises(KeyError):
        workloads.build("nope", 1)


def test_one_small_run_end_to_end():
    step = workloads.warmup_step(3)
    from repro.experiments import runner

    original = runner.SYSTEMS["REFER"].build
    with run.build_clock() as stamps:
        first = run.run_steps([step], stamps)
        second = run.run_steps([step], stamps)
        assert len(stamps) == 1
    assert runner.SYSTEMS["REFER"].build is original
    row = first[0]
    assert 0.0 < row["setup_s"] < row["run_s"]
    assert row["sim_s"] == 4.5
    assert row["fields"]["generated"] > 0
    assert run.digest(first) == run.digest(second)
    assert run.check("refer_build", first) == []
    p = run.pooled(first)
    assert 0.0 < p["qos_delivery_ratio"] <= 1.0
    assert p["sim_rate_x"] > 0.0

"""Tests for the campaign runner — the one way a grid runs.

What "supervised = plain" means is written here: the oracle is
``sweep_figure`` / ``aggregate_resilience_cell`` over direct runs, and
the pool (``workers=2``) must equal the in-process path
(``workers=0``).  A job that raises, a payload that does not decode
and a worker that dies must each fail the campaign naming the job,
in process and on a real spawned pool.
"""

import json
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import replace

import pytest

from repro.errors import CampaignError, ConfigError
from repro.experiments.campaign import run_campaign
from repro.experiments.config import ScenarioConfig
from repro.experiments.figures import ALL_SYSTEMS, FIGURE_SPECS, sweep_figure
from repro.experiments import parallel
from repro.experiments.parallel import job_for, supervise
from repro.experiments.payload import (
    merge_registry_snapshots,
    payload_from_result,
    result_from_payload,
)
from repro.experiments.resilience import (
    aggregate_resilience_cell,
    resilience_campaign,
    resilience_config,
)
from repro.experiments.runner import run_scenario_cached
from repro.telemetry.config import TelemetryConfig

TINY = ScenarioConfig(sim_time=6.0, warmup=1.0, rate_pps=4.0)

CAMPAIGN_KW = dict(seeds=1, figures=["fig4"], sweeps={"fig4": (5.0,)})

RESILIENCE_KW = dict(
    systems=("REFER",),
    fault_classes=("rotation",),
    intensities=(2,),
    seeds=1,
)

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


def _fig4_points(xs=(5.0,), systems=("REFER",)):
    """The points of a one-seed fig4 grid, in grid order."""
    config_for = FIGURE_SPECS["fig4"].config_for
    return [
        (system, config_for(TINY, x, 1)) for system in systems for x in xs
    ]


class TestPayloadCodec:
    def test_round_trip_plain_run(self):
        run = run_scenario_cached("REFER", TINY)
        payload = payload_from_result(run)
        rebuilt = result_from_payload("REFER", TINY, payload)
        for field in METRIC_FIELDS:
            assert repr(getattr(rebuilt, field)) == repr(
                getattr(run, field)
            ), field
        assert rebuilt.class_stats == run.class_stats
        assert rebuilt.fault_events == run.fault_events
        assert rebuilt.resilience == run.resilience
        assert rebuilt.recovery == run.recovery

    def test_round_trip_faulted_run_with_recovery(self):
        from repro.recovery import RecoveryConfig

        config = resilience_config(TINY, "rotation", 2, 1, RecoveryConfig())
        run = run_scenario_cached("REFER", config)
        assert run.fault_events and run.resilience is not None
        assert run.recovery is not None
        payload = payload_from_result(run)
        rebuilt = result_from_payload("REFER", config, payload)
        assert rebuilt.fault_events == run.fault_events
        assert rebuilt.resilience == run.resilience
        assert rebuilt.recovery == run.recovery

    def test_round_trip_through_json_with_everything_on(self):
        """Chaos, recovery, QoS, bursty load and tracing all on: every
        field of the run survives real JSON, telemetry aside."""
        from repro.qos import BurstyConfig, QosConfig
        from repro.recovery import RecoveryConfig
        from repro.telemetry.tracing import TracingConfig

        config = resilience_config(
            TINY, "rotation", 2, 1, RecoveryConfig()
        ).with_(
            qos=QosConfig(),
            bursty=BurstyConfig(sources=10, load_multiplier=3.0),
            telemetry=TelemetryConfig(tracing=TracingConfig()),
        )
        run = run_scenario_cached("REFER", config)
        assert run.class_stats and run.fault_events
        assert run.resilience.records and run.recovery is not None
        blob = json.loads(json.dumps(payload_from_result(run)))
        assert result_from_payload("REFER", config, blob) == replace(
            run, telemetry=None
        )
        assert blob["trace_hash"] == run.telemetry.trace.fingerprint()

    def test_telemetry_run_carries_registry_snapshot(self):
        config = TINY.with_(telemetry=TelemetryConfig())
        run = run_scenario_cached("REFER", config)
        payload = payload_from_result(run)
        assert payload["registry"] is not None
        merged = merge_registry_snapshots({"k": payload})
        assert merged == run.telemetry.registry.as_dict()
        # The rebuilt result carries no live telemetry: the snapshot
        # lives in the campaign-level merge instead.
        assert result_from_payload("REFER", config, payload).telemetry is None

    def test_untraced_run_carries_null_trace_hash(self):
        payload = payload_from_result(run_scenario_cached("REFER", TINY))
        assert payload["trace_hash"] is None

    def test_traced_run_carries_its_fingerprint(self):
        from repro.telemetry.tracing import TracingConfig

        config = TINY.with_(
            telemetry=TelemetryConfig(tracing=TracingConfig())
        )
        run = run_scenario_cached("REFER", config)
        payload = payload_from_result(run)
        assert payload["trace_hash"] == run.telemetry.trace.fingerprint()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.pop("run"),
            lambda p: p.update(version=2),
            lambda p: p["run"].update(generated="12"),
            lambda p: p["run"].update(throughput_bps=None),
            lambda p: p["run"].update(class_stats=[{
                "traffic_class": "bulk", "generated": 1, "delivered": 2,
                "deadline_missed": 3,
            }]),
            lambda p: p["run"].update(fault_events=[
                {"time": 0.0, "model": "m", "kind": "inject", "nodes": [1.5]}
            ]),
            lambda p: p.update(registry=[["name", [[["a"], "NaN"]]]]),
            lambda p: p.update(trace_hash=123),
            # An int field refuses a bool.
            lambda p: p["run"].update(generated=True),
            # A required field of a nested dataclass is null.
            lambda p: p["run"].update(fault_events=[
                {"time": 0.0, "model": None, "kind": "inject", "nodes": []}
            ]),
            lambda p: p["run"].update(unknown_field=0),
        ],
    )
    def test_corrupt_payloads_rejected(self, mutate):
        payload = payload_from_result(run_scenario_cached("REFER", TINY))
        mutate(payload)
        with pytest.raises(CampaignError, match="corrupt result payload"):
            result_from_payload("REFER", TINY, payload)



class TestRegistryMerge:
    def test_merge_sums_by_family_and_labels(self):
        p1 = {"registry": [["pkts", [[["a"], 2], [["b"], 3]]]]}
        p2 = {"registry": [["pkts", [[["a"], 5]]], ["drops", [[[], 1]]]]}
        merged = merge_registry_snapshots({"k2": p2, "k1": p1})
        assert merged == {
            "drops": {(): 1},
            "pkts": {("a",): 7, ("b",): 3},
        }

    def test_merge_is_order_independent(self):
        p1 = {"registry": [["pkts", [[["a"], 2]]]]}
        p2 = {"registry": [["pkts", [[["a"], 5]]]]}
        assert merge_registry_snapshots(
            {"k1": p1, "k2": p2}
        ) == merge_registry_snapshots({"k2": p2, "k1": p1})

    def test_no_snapshots_merges_to_none(self):
        assert merge_registry_snapshots({"k": {"registry": None}}) is None
        assert merge_registry_snapshots({}) is None


class TestJobs:
    def test_shared_sweep_points_dedupe(self):
        # Figs 9 and 10 sweep the same sizes: one job per point, not two.
        points = [
            ("REFER", FIGURE_SPECS[name].config_for(TINY, x, 1))
            for name in ("fig9", "fig10")
            for x in (100, 150)
        ]
        outcome = supervise(points, "fp")
        assert len(outcome.payloads) == 2
        assert len(outcome.results) == 2

    def test_key_is_content_addressed(self):
        a = job_for("REFER", TINY)
        assert a == job_for("REFER", TINY)
        assert a.key != job_for("DaTree", TINY).key
        assert a.key != job_for("REFER", TINY.with_(seed=2)).key

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigError, match="workers must be >= 0"):
            supervise(_fig4_points(), "fp", workers=-1)


class TestSerialDegradedMode:
    """``workers=0``: the in-process path equals direct runs."""

    def test_workers0_campaign_equals_legacy_serial(self):
        oracle = sweep_figure(
            FIGURE_SPECS["fig4"], TINY, (5.0,), ALL_SYSTEMS, 1,
            run=run_scenario_cached,
        )
        supervised = run_campaign(TINY, workers=0, **CAMPAIGN_KW)
        assert supervised.figures["fig4"] == oracle

    def test_workers0_resilience_equals_legacy_serial(self):
        oracle = aggregate_resilience_cell(
            "REFER",
            "rotation",
            2,
            [
                run_scenario_cached(
                    "REFER", resilience_config(TINY, "rotation", 2, 1)
                )
            ],
        )
        supervised = resilience_campaign(TINY, workers=0, **RESILIENCE_KW)
        assert supervised.cells == [oracle]



class TestJournalResume:
    def test_resume_after_truncation_is_byte_identical(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        kw = dict(
            seeds=1, figures=["fig4"], sweeps={"fig4": (5.0, 10.0)}
        )
        full = run_campaign(TINY, journal=str(journal), **kw)
        # Kill the coordinator after some completions: drop the last
        # two job lines plus half of another (a torn tail write).
        lines = journal.read_text(encoding="utf-8").splitlines()
        assert len(lines) > 4
        truncated = lines[:-2] + [lines[-2][: len(lines[-2]) // 2]]
        journal.write_text("\n".join(truncated), encoding="utf-8")
        resumed = run_campaign(
            TINY, journal=str(journal), resume=True, **kw
        )
        assert resumed.figures["fig4"] == full.figures["fig4"]

    def test_resume_reuses_journalled_payloads(self, tmp_path, monkeypatch):
        journal = str(tmp_path / "campaign.jsonl")
        points = _fig4_points((5.0, 10.0))
        first = supervise(points, "fp", journal=journal)

        def must_not_run(system, config):
            raise AssertionError("a journalled job ran again")

        monkeypatch.setattr(parallel, "run_job", must_not_run)
        second = supervise(points, "fp", journal=journal, resume=True)
        assert second.payloads == first.payloads

    def test_changed_grid_rejected_on_resume(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        run_campaign(TINY, journal=str(journal), **CAMPAIGN_KW)
        with pytest.raises(ConfigError):
            run_campaign(
                TINY.with_(seed=2),
                journal=str(journal),
                resume=True,
                **CAMPAIGN_KW,
            )

    @pytest.mark.parametrize(
        "edit",
        [
            lambda line: line["payload"]["registry"][0][1][0][0].append(
                ["a", "list"]
            ),
            lambda line: line.update(key=5),
            lambda line: line.update(payload=[1, 2]),
            lambda line: line["payload"]["run"]["fault_events"][0].pop(
                "nodes"
            ),
            lambda line: line.update(attempts="x"),
        ],
        ids=[
            "label-list",
            "key-not-a-string",
            "payload-not-an-object",
            "nested-field-missing",
            "unknown-field",
        ],
    )
    def test_hand_edited_journal_raises_campaign_error(self, tmp_path, edit):
        """A journal is outside input: whatever is malformed in it raises
        ``CampaignError``, never a bare ``TypeError`` or ``ValueError``."""
        journal = tmp_path / "resilience.jsonl"
        base = TINY.with_(telemetry=TelemetryConfig())
        kw = dict(journal=str(journal), **RESILIENCE_KW)
        resilience_campaign(base, **kw)
        header, line = journal.read_text(encoding="utf-8").splitlines()
        job = json.loads(line)
        edit(job)
        journal.write_text(f"{header}\n{json.dumps(job)}\n", encoding="utf-8")
        with pytest.raises(CampaignError):
            resilience_campaign(base, resume=True, **kw)

    def test_resume_without_journal_rejected(self):
        with pytest.raises(ConfigError, match="resume needs a journal"):
            run_campaign(TINY, resume=True, **CAMPAIGN_KW)
        with pytest.raises(ConfigError, match="resume needs a journal"):
            resilience_campaign(TINY, resume=True, **RESILIENCE_KW)


class TestFailLoudly:
    """A failed job stops the campaign and names itself."""

    @pytest.mark.parametrize("workers", [0, 2])
    def test_raising_job_fails_the_campaign(self, workers):
        points = [("NoSuchSystem", TINY)] + _fig4_points()
        key = job_for("NoSuchSystem", TINY).key
        with pytest.raises(CampaignError) as info:
            supervise(points, "fp", workers=workers)
        message = str(info.value)
        assert key in message
        assert "ConfigError: unknown system" in message

    def test_corrupt_live_payload_fails_the_campaign(self, monkeypatch):
        monkeypatch.setattr(
            parallel, "run_job", lambda system, config: {"run": {}}
        )
        (point,) = _fig4_points()
        with pytest.raises(CampaignError) as info:
            supervise([point], "fp")
        assert job_for(*point).key in str(info.value)
        assert "corrupt result payload" in str(info.value)

    def test_cli_exits_3_naming_the_failed_job(self, monkeypatch, capsys):
        from repro.experiments.__main__ import main

        def raising(system, config):
            raise RuntimeError("boom")

        monkeypatch.setattr(parallel, "run_job", raising)
        code = main(["fig4", "--seeds", "1", "--points", "5",
                     "--sim-time", "6"])
        assert code == 3
        err = capsys.readouterr().err
        assert "RuntimeError: boom" in err
        assert "job `" in err


#: Where a held job writes its worker's pid (inherited by the workers).
HELD_JOB_DIR = "REPRO_TEST_HELD_JOB_DIR"


def _held_job(system, config):
    """A pool job that reports its worker's pid, then holds its worker
    until the test kills it."""
    marker = os.path.join(os.environ[HELD_JOB_DIR], "pid")
    with open(marker + ".tmp", "w") as out:
        out.write(str(os.getpid()))
    os.replace(marker + ".tmp", marker)
    time.sleep(120.0)


class TestRealWorkerPool:
    """Spawned-process suite: a reused pool, and a worker really killed."""

    def test_dead_worker_fails_the_campaign(self, monkeypatch, tmp_path):
        # The worker is killed inside a job it has started (it wrote its
        # pid from there), so the pool cannot finish first.
        monkeypatch.setattr(parallel, "run_job", _held_job)
        monkeypatch.setenv(HELD_JOB_DIR, str(tmp_path))
        points = [("REFER", TINY.with_(seed=seed)) for seed in range(1, 9)]
        raised = []

        def coordinator():
            try:
                supervise(points, "fp", workers=1)
            except CampaignError as exc:
                raised.append(exc)

        thread = threading.Thread(target=coordinator)
        thread.start()
        marker = tmp_path / "pid"
        deadline = time.monotonic() + 60.0
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        pid = int(marker.read_text())
        assert pid in [child.pid for child in multiprocessing.active_children()]
        os.kill(pid, signal.SIGKILL)
        thread.join(60.0)
        assert not thread.is_alive()
        (exc,) = raised
        assert "BrokenProcessPool" in str(exc)
        assert "job `REFER:" in str(exc)

    def test_workers2_equals_workers0(self):
        kw = dict(
            seeds=1,
            figures=["fig4"],
            systems=("REFER", "DaTree"),
            sweeps={"fig4": (5.0,)},
        )
        pooled = run_campaign(TINY, workers=2, **kw)
        assert pooled.figures == run_campaign(TINY, workers=0, **kw).figures
        pooled_cells = resilience_campaign(TINY, workers=2, **RESILIENCE_KW)
        assert pooled_cells.cells == resilience_campaign(
            TINY, workers=0, **RESILIENCE_KW
        ).cells

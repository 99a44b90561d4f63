"""Tests for the campaign supervisor — the one way a grid runs.

The retry/quarantine suites run the supervisor in process
(``workers=0``) against a saboteur ``work`` callable
(:mod:`tests.experiments.sabotage`) that raises or returns garbage on
cue; one suite spawns real worker processes to exercise crash
detection from exit codes and hang detection from deadlines.  What
"supervised = plain" means is written here: the oracle is
``sweep_figure`` / ``aggregate_resilience_cell`` over direct runs.
"""

import pytest

from repro.errors import CampaignError, ConfigError
from repro.experiments.campaign import (
    campaign_report,
    run_campaign,
    run_figure,
)
from repro.experiments.config import ScenarioConfig
from repro.experiments.figures import ALL_SYSTEMS, FIGURE_SPECS, sweep_figure
from repro.experiments.journal import CampaignJournal
from repro.experiments.parallel import (
    CampaignSupervisor,
    RetryPolicy,
    job_for,
    supervise,
)
from repro.experiments.payload import (
    merge_registry_snapshots,
    payload_from_result,
    result_from_payload,
    validate_payload,
)
from repro.experiments.resilience import (
    aggregate_resilience_cell,
    resilience_campaign,
    resilience_config,
)
from repro.experiments.runner import run_scenario_cached
from repro.telemetry.config import TelemetryConfig
from tests.experiments.sabotage import ALWAYS, Saboteur

TINY = ScenarioConfig(sim_time=6.0, warmup=1.0, rate_pps=4.0)

FAST_RETRY = RetryPolicy(max_attempts=3, deadline_s=60.0)

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


def _fig4_jobs(xs=(5.0,), systems=("REFER",)):
    """The jobs of a one-seed fig4 grid, in grid order."""
    config_for = FIGURE_SPECS["fig4"].config_for
    return [
        job_for(system, config_for(TINY, x, 1))
        for system in systems
        for x in xs
    ]


class TestPayloadCodec:
    def test_round_trip_plain_run(self):
        run = run_scenario_cached("REFER", TINY)
        payload = validate_payload(payload_from_result(run))
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
        payload = validate_payload(payload_from_result(run))
        rebuilt = result_from_payload("REFER", config, payload)
        assert rebuilt.fault_events == run.fault_events
        assert rebuilt.resilience == run.resilience
        assert rebuilt.recovery == run.recovery

    def test_telemetry_run_carries_registry_snapshot(self):
        config = TINY.with_(telemetry=TelemetryConfig())
        run = run_scenario_cached("REFER", config)
        payload = validate_payload(payload_from_result(run))
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
        payload = validate_payload(payload_from_result(run))
        assert payload["trace_hash"] == run.telemetry.trace.fingerprint()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.pop("metrics"),
            lambda p: p.update(version=99),
            lambda p: p["metrics"].update(generated="12"),
            lambda p: p["metrics"].update(throughput_bps=None),
            lambda p: p.update(class_stats=[["bulk", 1, 2, 3]]),
            lambda p: p.update(fault_events=[[0.0, "m", "kind"]]),
            lambda p: p.update(registry=[["name", [[["a"], "NaN"]]]]),
            lambda p: p.update(trace_hash=123),
        ],
    )
    def test_corrupt_payloads_rejected(self, mutate):
        payload = payload_from_result(run_scenario_cached("REFER", TINY))
        mutate(payload)
        with pytest.raises(CampaignError):
            validate_payload(payload)

    def test_worker_error_payload_rejected_with_detail(self):
        with pytest.raises(CampaignError, match="EmbeddingError"):
            validate_payload(
                {"version": 1, "worker_error": "EmbeddingError: too few"}
            )


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
        assert outcome.stats.jobs == 2
        assert outcome.stats.executed == 2
        assert len(outcome.payloads) == 2

    def test_key_is_content_addressed(self):
        a = job_for("REFER", TINY)
        assert a == job_for("REFER", TINY)
        assert a.key != job_for("DaTree", TINY).key
        assert a.key != job_for("REFER", TINY.with_(seed=2)).key

    def test_duplicate_jobs_rejected(self):
        job = job_for("REFER", TINY)
        with pytest.raises(CampaignError):
            CampaignSupervisor([job, job])

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigError):
            CampaignSupervisor(_fig4_jobs(), workers=-1)


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"deadline_s": 0.0},
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RetryPolicy(**kwargs)


class TestSerialDegradedMode:
    def test_workers0_campaign_equals_legacy_serial(self):
        oracle = sweep_figure(
            FIGURE_SPECS["fig4"], TINY, (5.0,), ALL_SYSTEMS, 1,
            run=run_scenario_cached,
        )
        supervised = run_campaign(TINY, workers=0, **CAMPAIGN_KW)
        assert supervised.figures["fig4"] == oracle
        assert supervised.failed_jobs == ()

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
        assert supervised.failed_jobs == ()

    def test_permanent_error_quarantined_in_manifest(self, tmp_path):
        # A reported error is not retried: the real work is a pure
        # function of (system, config), so a rerun could only repeat
        # it.  (The saboteur's second attempt would have succeeded.)
        jobs = _fig4_jobs()
        outcome = CampaignSupervisor(
            jobs,
            retry=FAST_RETRY,
            work=Saboteur.of(tmp_path, error={jobs[0].key: 1}),
        ).run()
        assert outcome.payloads == {}
        assert len(outcome.failed) == 1
        failed = outcome.failed[0]
        assert failed.key == jobs[0].key
        assert failed.reason == "error"
        assert "RuntimeError" in failed.detail
        assert failed.attempts == 1
        assert outcome.stats.errors == 1
        assert outcome.stats.retries == 0
        assert outcome.stats.quarantined == 1

    def test_raising_scenario_quarantined_as_error(self):
        outcome = supervise(
            [("NoSuchSystem", TINY)], "fp", retry=RetryPolicy(max_attempts=3)
        )
        assert outcome.stats.errors == 1
        assert outcome.stats.retries == 0
        (failed,) = outcome.failed
        assert failed.attempts == 1
        assert failed.reason == "error"
        assert "ConfigError: unknown system" in failed.detail

    def test_corrupt_payload_rejected_then_retried(self, tmp_path):
        oracle = CampaignSupervisor(_fig4_jobs(), retry=FAST_RETRY).run()
        jobs = _fig4_jobs()
        sabotaged = CampaignSupervisor(
            jobs,
            retry=FAST_RETRY,
            work=Saboteur.of(tmp_path, corrupt={jobs[0].key: 2}),
        ).run()
        assert sabotaged.payloads == oracle.payloads
        assert sabotaged.stats.corrupt == 2
        assert sabotaged.failed == ()

    def test_campaign_completes_around_poisoned_job(self, tmp_path):
        """A permanently failing job costs its own samples, nothing else."""
        kw = dict(
            seeds=1,
            figures=["fig4"],
            sweeps={"fig4": (5.0, 10.0)},
        )
        healthy = run_campaign(TINY, **kw).figures["fig4"].series
        poisoned_key = _fig4_jobs((5.0, 10.0))[0].key
        result = run_campaign(
            TINY,
            workers=0,
            retry=FAST_RETRY,
            work=Saboteur.of(tmp_path, error={poisoned_key: ALWAYS}),
            **kw,
        )
        assert [f.key for f in result.failed_jobs] == [poisoned_key]
        merged = result.figures["fig4"].series
        assert set(merged) == set(healthy)
        for system, points in healthy.items():
            for got, want in zip(merged[system], points):
                if got.samples == want.samples:
                    assert got == want
                else:
                    # The poisoned point: zero samples, NaN mean.
                    assert got.samples == 0
                    assert got.mean != got.mean

    def test_failed_jobs_render_in_report(self, tmp_path):
        key = _fig4_jobs()[0].key
        result = run_campaign(
            TINY,
            workers=0,
            retry=FAST_RETRY,
            work=Saboteur.of(tmp_path, error={key: ALWAYS}),
            **CAMPAIGN_KW,
        )
        report = campaign_report(result)
        assert "## Failed jobs" in report
        assert key in report

    def test_run_figure_raises_on_quarantined_job(self, tmp_path):
        key = _fig4_jobs()[0].key
        with pytest.raises(CampaignError, match=key):
            run_figure(
                "fig4",
                TINY,
                (5.0,),
                seeds=1,
                retry=RetryPolicy(max_attempts=1),
                work=Saboteur.of(tmp_path, corrupt={key: ALWAYS}),
            )


class TestJournalResume:
    def test_resume_after_truncation_is_byte_identical(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        kw = dict(
            seeds=1, figures=["fig4"], sweeps={"fig4": (5.0, 10.0)}
        )
        full = run_campaign(TINY, journal=str(journal), **kw)
        assert full.failed_jobs == ()
        # Kill the coordinator after some completions: drop the last
        # two job lines plus half of another (a torn tail write).
        lines = journal.read_text(encoding="utf-8").splitlines()
        assert len(lines) > 4
        truncated = lines[:-2] + [lines[-2][: len(lines[-2]) // 2]]
        journal.write_text(
            "\n".join(truncated) + "\n", encoding="utf-8"
        )
        resumed = run_campaign(
            TINY, journal=str(journal), resume=True, **kw
        )
        assert resumed.figures["fig4"] == full.figures["fig4"]
        assert resumed.failed_jobs == ()

    def test_resume_reuses_journalled_payloads(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        jobs = _fig4_jobs()
        first = CampaignJournal(str(journal), "fp")
        CampaignSupervisor(jobs, journal=first).run()
        first.close()
        second = CampaignJournal(str(journal), "fp", resume=True)
        outcome = CampaignSupervisor(_fig4_jobs(), journal=second).run()
        second.close()
        assert outcome.stats.reused == len(jobs)
        assert outcome.stats.executed == 0

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

    def test_resume_without_journal_rejected(self):
        with pytest.raises(ConfigError, match="resume needs a journal"):
            run_campaign(TINY, resume=True, **CAMPAIGN_KW)
        with pytest.raises(ConfigError, match="resume needs a journal"):
            resilience_campaign(TINY, resume=True, **RESILIENCE_KW)


class TestRealWorkerPool:
    """Spawned-process suite: real crashes, real hangs, real deadlines."""

    def test_crash_and_hang_detection_with_retries(self, tmp_path):
        jobs = _fig4_jobs((5.0, 10.0))
        assert len(jobs) == 2
        oracle = CampaignSupervisor(jobs, retry=FAST_RETRY).run()
        outcome = CampaignSupervisor(
            _fig4_jobs((5.0, 10.0)),
            workers=2,
            # A healthy spawned attempt is ~1.5 s (interpreter + import
            # + a 0.3 s scenario); 8 s leaves a wide margin while
            # bounding how long the sabotaged hang is allowed to sit
            # before the deadline kills it.
            retry=RetryPolicy(max_attempts=2, deadline_s=8.0),
            work=Saboteur.of(
                tmp_path, crash={jobs[0].key: 1}, hang={jobs[1].key: 1}
            ),
        ).run()
        assert outcome.failed == ()
        assert outcome.payloads == oracle.payloads
        assert outcome.stats.crashes == 1
        assert outcome.stats.hangs == 1
        assert outcome.stats.retries == 2

    def test_permanent_crash_reports_the_exit_code(self, tmp_path):
        (job,) = _fig4_jobs()
        outcome = CampaignSupervisor(
            [job],
            workers=1,
            retry=RetryPolicy(max_attempts=1, deadline_s=60.0),
            work=Saboteur.of(tmp_path, crash={job.key: ALWAYS}),
        ).run()
        (failed,) = outcome.failed
        assert failed.reason == "crash"
        assert "exit code 17" in failed.detail

    def test_workers2_equals_workers0(self):
        kw = dict(
            seeds=1,
            figures=["fig4"],
            systems=("REFER", "DaTree"),
            sweeps={"fig4": (5.0,)},
        )
        pooled = run_campaign(TINY, workers=2, **kw)
        assert pooled.failed_jobs == ()
        assert pooled.figures == run_campaign(TINY, workers=0, **kw).figures
        pooled_cells = resilience_campaign(TINY, workers=2, **RESILIENCE_KW)
        assert pooled_cells.failed_jobs == ()
        assert pooled_cells.cells == resilience_campaign(
            TINY, workers=0, **RESILIENCE_KW
        ).cells

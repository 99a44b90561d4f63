"""First-divergence debugger: verdicts, worker runs, CLI exit codes.

The centrepiece is the seeded-bug localisation: the
``fixtures/unordered_sources.py`` fixture patches the CBR workload to
iterate per-window sources in sorted order instead of sample order,
and the debugger must name the exact first divergent event it causes —
pinned here to the event's precise trace seq, sim time, kind and label
(the same constants the CI smoke step asserts).

Runs :func:`repro.devtools.divergence.main` in-process — the same code
path ``python -m repro.devtools.divergence`` executes.
"""

import argparse
import json
import pathlib
from multiprocessing.context import SpawnProcess

import pytest

from repro.devtools.divergence import localise, main, traced_run
from repro.errors import ConfigError

FIXTURE = str(
    pathlib.Path(__file__).parent / "fixtures" / "unordered_sources.py"
)

#: The exact first divergent event the fixture causes under the CLI
#: defaults (seed 11, 40 sensors, warmup 2): the first packet of the
#: first CBR window is generated by the wrong source.
BUG_SEQ = 102
BUG_TIME = 0.03673357207675809
BUG_KIND = "flight"
BUG_LABEL = "generate"


def _args(**overrides):
    """The CLI defaults as a namespace (what main() hands localise())."""
    base = dict(
        specs=[], system="REFER", seed=11, sensors=40,
        area=220.0, sim_time=4.0, warmup=2.0, rate=5.0, chaos=None,
        recovery=False, qos=False, bursty=0, load=1.0, checkpoint=1.0,
        context=5, fixture=None, as_json=False,
    )
    base.update(overrides)
    return argparse.Namespace(**base)


class TestLocalise:
    def test_identical_specs_are_identical(self):
        args = _args(sim_time=3.0)
        verdict = localise("inproc", "inproc", args)
        assert verdict["identical"]
        assert (
            verdict["left"]["fingerprint"] == verdict["right"]["fingerprint"]
        )
        assert "first_divergence" not in verdict

    def test_fixture_bug_is_localised_to_the_exact_event(self):
        verdict = localise("inproc", "inproc", _args(), fixture=FIXTURE)
        assert not verdict["identical"]
        assert verdict["checkpoint"]["index"] == 0
        assert verdict["checkpoint"]["mismatch"] == "events"
        div = verdict["first_divergence"]
        assert div["seq"] == BUG_SEQ
        left, right = div["left"], div["right"]
        assert left["time"] == BUG_TIME and right["time"] == BUG_TIME
        assert left["kind"] == BUG_KIND and right["kind"] == BUG_KIND
        assert left["label"] == BUG_LABEL and right["label"] == BUG_LABEL
        # Same packet, different source: the unordered-iteration bug.
        assert left["detail"] != right["detail"]
        assert "uid=1" in left["detail"] and "uid=1" in right["detail"]

    def test_context_window_brackets_the_divergence(self):
        verdict = localise(
            "inproc", "inproc", _args(context=3), fixture=FIXTURE
        )
        context = verdict["context"]
        seqs = [event["seq"] for event in context["left"]]
        assert BUG_SEQ in seqs
        assert len(seqs) <= 7  # K before + the event + K after


class TestWorkerSpec:
    def test_worker_run_matches_in_process(self):
        args = _args(sim_time=3.0)
        in_process = traced_run("inproc", args)
        worker = traced_run("worker", args)
        assert worker.fingerprint == in_process.fingerprint
        assert worker.checkpoints == in_process.checkpoints

    def test_a_worker_that_cannot_spawn_fails(self, monkeypatch):
        # The worker side must run in another interpreter or not at all:
        # comparing this interpreter with itself would prove nothing.
        def refuse(process):
            raise OSError("spawning refused")

        monkeypatch.setattr(SpawnProcess, "start", refuse)
        with pytest.raises(ConfigError, match="REFER.*spawning refused"):
            traced_run("worker", _args(sim_time=3.0))

    def test_unknown_spec_raises(self):
        with pytest.raises(ConfigError):
            traced_run("warp-drive", _args())


class TestCli:
    def test_identical_exits_zero(self, capsys):
        code = main(["inproc", "worker", "--sim-time", "3"])
        assert code == 0
        assert "traces identical" in capsys.readouterr().out

    def test_fixture_exits_two_and_names_the_event(self, capsys):
        code = main(
            ["inproc", "inproc", "--fixture", FIXTURE,
             "--sim-time", "4"]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "first divergent event" in out
        assert f"seq={BUG_SEQ} t={BUG_TIME:.6f} {BUG_KIND} {BUG_LABEL}" in out

    def test_json_verdict_shape(self, capsys):
        code = main(
            ["inproc", "inproc", "--fixture", FIXTURE,
             "--sim-time", "4", "--json"]
        )
        assert code == 2
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["identical"] is False
        assert verdict["fixture"] == FIXTURE
        assert verdict["first_divergence"]["seq"] == BUG_SEQ
        assert verdict["first_divergence"]["left"]["time"] == BUG_TIME
        assert verdict["window"][0] == 0

    def test_requires_exactly_two_specs(self):
        with pytest.raises(SystemExit):
            main(["inproc"])

    def test_unknown_token_is_a_cli_error(self):
        with pytest.raises(SystemExit):
            main(["inproc", "warp-drive"])

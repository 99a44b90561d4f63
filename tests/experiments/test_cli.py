"""Tests for the command-line interface."""

import pytest

from repro.experiments.__main__ import build_parser, main


class TestParser:
    def test_figure_command(self):
        args = build_parser().parse_args(["fig4", "--seeds", "3"])
        assert args.command == "fig4"
        assert args.seeds == 3

    def test_run_command(self):
        args = build_parser().parse_args(
            ["run", "REFER", "--sensors", "100"]
        )
        assert args.command == "run"
        assert args.system == "REFER"
        assert args.sensors == 100

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "NotASystem"])


class TestMain:
    def test_run_prints_metrics(self, capsys):
        code = main(
            ["run", "REFER", "--sim-time", "8", "--rate", "4", "--seed", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "REFER" in out

    def test_run_without_system_errors(self, capsys):
        assert main(["run"]) == 2

    def test_figure_prints_table(self, capsys):
        code = main(
            [
                "fig10", "--sim-time", "6", "--rate", "4", "--seeds", "1",
                "--points", "100",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig 10" in out
        assert "REFER" in out and "Kautz-overlay" in out

    def test_figure_point_override_speeds(self, capsys):
        code = main(
            [
                "fig4", "--sim-time", "6", "--rate", "4", "--seeds", "1",
                "--points", "1.0",
            ]
        )
        assert code == 0
        assert "Fig 4" in capsys.readouterr().out

    def test_resume_without_journal_is_a_usage_error(self, capsys):
        assert main(["fig4", "--resume"]) == 2
        assert main(["campaign", "--resume"]) == 2
        assert "resume needs a journal" in capsys.readouterr().err

    def test_figure_takes_the_supervision_flags(self, capsys, tmp_path):
        journal = tmp_path / "fig10.jsonl"
        argv = [
            "fig10", "--sim-time", "6", "--rate", "4", "--seeds", "1",
            "--points", "100", "--journal", str(journal),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert journal.read_text(encoding="utf-8").count('"done"') == 4
        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_run_with_faults(self, capsys):
        code = main(
            [
                "run", "DaTree", "--sim-time", "8", "--rate", "4",
                "--faults", "4",
            ]
        )
        assert code == 0

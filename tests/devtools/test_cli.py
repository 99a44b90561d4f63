"""CLI semantics: exit codes, output format, default paths, planted violations.

Runs :func:`repro.devtools.lint.main` in-process (capturing stdout) —
the same code path ``python -m repro.devtools.lint`` executes.
"""

import os

import pytest

from repro.devtools.lint import main


@pytest.fixture
def tree(tmp_path, monkeypatch):
    """A minimal clean src-like tree, with the CWD placed inside it."""
    pkg = tmp_path / "src" / "repro" / "net"
    pkg.mkdir(parents=True)
    (pkg / "clean.py").write_text(
        '"""A clean module."""\n\ndef f(x):\n    return x + 1\n'
    )
    monkeypatch.chdir(tmp_path)
    return tmp_path


def plant_violation(tree):
    (tree / "src" / "repro" / "net" / "bad.py").write_text(
        "import random\nx = random.random()\n"
    )


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tree, capsys):
        assert main(["src"]) == 0
        assert "0 problem(s)" in capsys.readouterr().out

    def test_planted_ref001_violation_fails_cli(self, tree, capsys):
        plant_violation(tree)
        assert main(["src"]) == 1
        out = capsys.readouterr().out
        assert "REF001" in out
        assert "bad.py" in out

    def test_missing_path_is_usage_error(self, tree, capsys):
        assert main(["no/such/dir"]) == 2

    def test_unknown_rule_id_is_usage_error(self, tree, capsys):
        # The CLI takes paths only: the old --select flag is no path.
        assert main(["--select", "REF999", "src"]) == 2

    def test_syntax_error_fails_the_run(self, tree):
        (tree / "src" / "repro" / "net" / "broken.py").write_text("def (:\n")
        with pytest.raises(SyntaxError, match="broken.py"):
            main(["src"])

    def test_default_paths_are_the_four_trees(self, tree, capsys):
        for top in ("tests", "benchmarks", "examples"):
            (tree / top).mkdir()
        assert main([]) == 0
        (tree / "examples" / "demo.py").write_text(
            "import random\nrandom.seed(1)\n"
        )
        assert main([]) == 1
        assert "examples/demo.py:2:1: REF001" in capsys.readouterr().out


class TestFormats:
    def test_text_format_is_path_line_col(self, tree, capsys):
        plant_violation(tree)
        main(["src"])
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("src/repro/net/bad.py:2:")
        assert "REF001 call to global random.random()" in first


class TestModuleInvocation:
    def test_python_dash_m_entry_point(self, tree):
        # The real subprocess invocation.
        import subprocess
        import sys

        plant_violation(tree)
        env = dict(os.environ)
        repo_src = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        env["PYTHONPATH"] = os.path.join(repo_src, "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.devtools.lint", "src"],
            capture_output=True,
            text=True,
            cwd=str(tree),
            env=env,
        )
        assert proc.returncode == 1
        assert "REF001" in proc.stdout

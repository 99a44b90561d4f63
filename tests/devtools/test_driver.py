"""Driver semantics: file discovery, ordering, bad files, the allow-list."""

import pytest

from repro.devtools import lint_paths, lint_source
from repro.devtools.driver import iter_python_files
from repro.devtools.rules import protocol_code

LIB = "src/repro/net/example.py"


class TestDriver:
    def test_findings_sorted_by_location(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "net"
        pkg.mkdir(parents=True)
        (pkg / "b.py").write_text("import random\nx = random.random()\n")
        (pkg / "a.py").write_text(
            "import time\nt = time.time()\nu = time.time()\n"
        )
        problems = lint_paths([str(tmp_path)])
        keys = [line.split(":")[:2] for line in problems]
        assert keys == sorted(keys, key=lambda k: (k[0], int(k[1])))
        assert len(problems) == 3

    def test_iter_python_files_skips_pycache(self, tmp_path):
        good = tmp_path / "m.py"
        good.write_text("x = 1\n")
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "m.cpython-311.py").write_text("x = 1\n")
        assert list(iter_python_files([str(tmp_path)])) == [str(good)]

    def test_lint_file_reads_from_disk(self, tmp_path):
        target = tmp_path / "src" / "repro" / "net" / "m.py"
        target.parent.mkdir(parents=True)
        target.write_text("import random\nrandom.seed(0)\n")
        problems = lint_paths([str(target)])
        assert [line.split()[1] for line in problems] == ["REF001"]

    def test_a_file_that_does_not_parse_raises_naming_it(self):
        with pytest.raises(SyntaxError) as error:
            lint_source("x = 1\ndef broken(:\n", LIB)
        assert error.value.filename == LIB
        assert error.value.lineno == 2

    def test_rule_scoping_uses_context(self):
        assert protocol_code("src/repro/wsan/x.py")
        assert not protocol_code("src/repro/experiments/figures.py")
        assert not protocol_code("tests/wsan/x.py")


class TestAllowList:
    """The allow-list is compared exactly, per file and rule: the
    divergence CLI may print its verdict once."""

    SITE = "src/repro/devtools/divergence.py"

    def lint_site(self, tmp_path, source):
        target = tmp_path / self.SITE
        target.parent.mkdir(parents=True)
        target.write_text(source)
        return str(target), lint_paths([str(tmp_path)])

    def test_the_allowed_findings_pass(self, tmp_path):
        _, problems = self.lint_site(tmp_path, "print(verdict)\n")
        assert problems == []

    def test_a_planted_violation_fails(self, tmp_path):
        path, problems = self.lint_site(
            tmp_path, "print(verdict)\nprint(progress)\n"
        )
        message = (
            "REF007 print() in protocol code; record through the "
            "telemetry registry / flight recorder instead"
        )
        assert problems == [
            f"{path}:1:1: {message}",
            f"{path}:2:1: {message}",
            f"{path}: REF007 allowed 1 time(s), found 2",
        ]

    def test_a_planted_violation_of_another_rule_fails(self, tmp_path):
        _, problems = self.lint_site(
            tmp_path, "import random\nprint(verdict)\nrandom.seed(1)\n"
        )
        assert [line.split()[1] for line in problems] == ["REF001"]

    def test_a_removed_allowed_site_fails(self, tmp_path):
        path, problems = self.lint_site(tmp_path, "verdict = 1\n")
        assert problems == [f"{path}: REF007 allowed 1 time(s), found 0"]

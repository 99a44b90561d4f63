"""Framework semantics: suppressions, ordering, bad files."""

import ast

from repro.devtools import (
    Finding,
    Rule,
    RuleContext,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.devtools.driver import PARSE_ERROR, iter_python_files

LIB = "src/repro/net/example.py"


class TestSuppressions:
    def test_same_line_disable_specific_rule(self):
        source = "import random\nx = random.random()  # referlint: disable=REF001\n"
        assert lint_source(source, LIB) == []

    def test_disable_is_rule_specific(self):
        source = "import random\nx = random.random()  # referlint: disable=REF002\n"
        assert [f.rule_id for f in lint_source(source, LIB)] == ["REF001"]

    def test_bare_disable_suppresses_all_rules(self):
        source = "import time\nt = time.time()  # referlint: disable\n"
        assert lint_source(source, LIB) == []

    def test_disable_next_line(self):
        source = (
            "import random\n"
            "# referlint: disable-next-line=REF001\n"
            "x = random.random()\n"
        )
        assert lint_source(source, LIB) == []

    def test_disable_several_rules_in_one_comment(self):
        source = (
            "import random, time\n"
            "x = random.random() + time.time()"
            "  # referlint: disable=REF001, REF002\n"
        )
        assert lint_source(source, LIB) == []

    def test_suppression_only_covers_its_line(self):
        source = (
            "import random\n"
            "a = random.random()  # referlint: disable=REF001\n"
            "b = random.random()\n"
        )
        findings = lint_source(source, LIB)
        assert [(f.rule_id, f.line) for f in findings] == [("REF001", 3)]


class TestDriver:
    def test_syntax_error_becomes_parse_finding(self):
        findings = lint_source("def broken(:\n", LIB)
        assert [f.rule_id for f in findings] == [PARSE_ERROR]

    def test_findings_sorted_by_location(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "net"
        pkg.mkdir(parents=True)
        (pkg / "b.py").write_text("import random\nx = random.random()\n")
        (pkg / "a.py").write_text(
            "import time\nt = time.time()\nu = time.time()\n"
        )
        findings = lint_paths([str(tmp_path)])
        keys = [(f.path, f.line) for f in findings]
        assert keys == sorted(keys)
        assert len(findings) == 3

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
        findings = lint_file(str(target))
        assert [f.rule_id for f in findings] == ["REF001"]

    def test_unreadable_file_becomes_finding(self, tmp_path):
        findings = lint_file(str(tmp_path / "missing.py"))
        assert [f.rule_id for f in findings] == [PARSE_ERROR]

    def test_custom_rule_and_finish_hook(self):
        class CountCalls(Rule):
            rule_id = "TST001"
            title = "test rule"
            node_types = (ast.Call,)

            def __init__(self):
                self.calls = 0

            def visit(self, node, ctx):
                self.calls += 1

            def finish(self, tree, ctx):
                ctx.report(self, tree.body[0], f"saw {self.calls} calls")

        findings = lint_source("f()\ng()\n", "m.py", rules=[CountCalls()])
        assert len(findings) == 1
        assert findings[0].message == "saw 2 calls"

    def test_rule_scoping_uses_context(self):
        ctx = RuleContext("src/repro/wsan/x.py", "")
        assert ctx.in_directory("wsan")
        assert not ctx.in_directory("sim", "net", "core")
        assert not ctx.is_test_file

"""The referlint driver: one parse and one walk per file, one allow-list.

Each file is parsed once and walked once; its nodes are bucketed by
type, and every rule of :data:`repro.devtools.rulepack.RULES` whose
scope admits the file's path reads the buckets it needs.  Files are
linted one at a time and share nothing: a finding depends on the file
it is in and on that file's path, so linting a tree is linting each of
its files.  A file that does not parse raises ``SyntaxError`` naming
the file and line.

There is no suppression syntax.  The findings the tree keeps on
purpose are :data:`ALLOWED`, counted per file and rule and compared
exactly, the way the package's keep lists are: a new finding fails,
and so does an entry whose site went away.
"""

import ast
import os
from collections import Counter, defaultdict
from pathlib import PurePosixPath
from typing import Iterable, Iterator, List

from repro.devtools.findings import Finding
from repro.devtools.rulepack import RULES

#: What the CLI and the tier-1 gate lint: every tree the package's keep
#: rules scan.
DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples")

#: The findings kept on purpose: ``(path suffix, rule id) -> count``.
ALLOWED = {
    # The report CLI: the report and its --wall profile go to stdout,
    # a refused configuration to stderr.
    ("repro/telemetry/report.py", "REF007"): 3,
    # The coverage CLI: the table and the gate message go to stdout.
    ("repro/devtools/cover.py", "REF007"): 2,
    # The divergence CLI: the verdict goes to stdout.
    ("repro/devtools/divergence.py", "REF007"): 1,
    # An unused import in a module awaiting deletion
    # (``AWAITING_DELETION``, tests/test_package_quality.py).
    ("repro/viz/svg.py", "REF013"): 1,
}

#: Directories never descended into when expanding path arguments.
_SKIP_DIRS = {"__pycache__", "node_modules"}


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` paths."""
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d not in _SKIP_DIRS and not d.startswith(".")
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        yield os.path.join(dirpath, filename)
        else:
            yield path


def lint_source(source: str, path: str) -> List[Finding]:
    """Every finding in one module, sorted; ``path`` picks the rules."""
    path = PurePosixPath(path.replace("\\", "/")).as_posix()
    nodes = defaultdict(list)
    for node in ast.walk(ast.parse(source, filename=path)):
        nodes[type(node)].append(node)
    return sorted(
        Finding(path, node.lineno, node.col_offset + 1, rule_id, message)
        for rule_id, applies, check in RULES
        if applies(path)
        for node, message in check(nodes)
    )


def lint_paths(paths: Iterable[str]) -> List[str]:
    """Lint every ``.py`` file under ``paths`` against :data:`ALLOWED`.

    Returns the problems, one line each; empty means clean.  For every
    file and rule whose count of findings is not the allowed count (0
    when unlisted) the lines are those findings, plus, for a listed
    pair, one naming both counts — so a stale entry fails too.
    """
    problems: List[str] = []
    for path in iter_python_files(paths):
        with open(path, encoding="utf-8") as handle:
            findings = lint_source(handle.read(), path)
        key = "/" + path.replace("\\", "/")
        allowed = {
            rule_id: count
            for (suffix, rule_id), count in ALLOWED.items()
            if key.endswith("/" + suffix)
        }
        found = Counter(finding.rule_id for finding in findings)
        for rule_id in sorted(set(found) | set(allowed)):
            if found[rule_id] == allowed.get(rule_id, 0):
                continue
            problems.extend(
                finding.format_text()
                for finding in findings
                if finding.rule_id == rule_id
            )
            if rule_id in allowed:
                problems.append(
                    f"{path}: {rule_id} allowed {allowed[rule_id]} "
                    f"time(s), found {found[rule_id]}"
                )
    return problems

"""The single-parse, multi-rule lint driver.

Each file is read and parsed **once**; every AST node is dispatched to
every registered rule that declared interest in its type, then each
rule gets a whole-module ``finish`` pass.  Files are linted one at a
time and share nothing: a finding depends on the file it is in and on
that file's path, so linting a tree is linting each of its files.

The driver also implements inline suppressions::

    risky_call()  # referlint: disable=REF001
    # referlint: disable-next-line=REF002,REF004
    t = wall_clock()
    anything_at_all()  # referlint: disable

A bare ``disable`` (no ``=RULES``) suppresses every rule on that line.
Directives are read from real comment tokens only (a ``# referlint:``
inside an f-string or other literal is data, not a directive), and
``disable-next-line`` covers the whole statement that starts on the
next line — findings anchored to the later physical lines of a
multi-line call are suppressed too.

Files that fail to parse produce a single :data:`PARSE_ERROR` finding
instead of crashing the run — a broken file must fail CI, not the
linter.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

from repro.devtools.findings import Finding
from repro.devtools.rules import Rule, RuleContext, all_rules

#: Pseudo-rule id for files the driver could not parse.
PARSE_ERROR = "REF000"

#: Directories never descended into when expanding path arguments.
_SKIP_DIRS = {"__pycache__", ".git", ".hg", ".tox", ".venv", "node_modules"}

_SUPPRESS_RE = re.compile(
    r"#\s*referlint:\s*(disable(?:-next-line)?)\s*(?:=\s*([A-Za-z0-9_,\s]+))?"
)

#: Sentinel meaning "every rule" in the suppression map.
_ALL = "*"


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
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


def _comment_lines(source: str) -> List[Tuple[int, str]]:
    """``(line, text)`` for every real comment token in ``source``.

    Tokenising (rather than regex-scanning raw lines) is what keeps a
    ``# referlint:`` spelled inside an f-string or docstring from being
    honoured as a directive.  Sources that cannot be tokenised fall
    back to raw lines — they produce a parse-error finding anyway.
    """
    try:
        return [
            (token.start[0], token.string)
            for token in tokenize.generate_tokens(
                io.StringIO(source).readline
            )
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return list(enumerate(source.splitlines(), start=1))


def suppressions_by_line(
    source: str, tree: Optional[ast.Module] = None
) -> Dict[int, Set[str]]:
    """Map 1-based line number → set of suppressed rule ids (or ``*``).

    With ``tree`` provided, ``disable-next-line`` directives expand
    over the whole statement beginning on the following line, so a
    finding anchored inside a multi-line call is still suppressed.
    """
    table: Dict[int, Set[str]] = {}
    next_line: Dict[int, Set[str]] = {}
    for lineno, text in _comment_lines(source):
        for match in _SUPPRESS_RE.finditer(text):
            directive, rule_list = match.groups()
            rules = (
                {r.strip().upper() for r in rule_list.split(",") if r.strip()}
                if rule_list
                else {_ALL}
            )
            if directive.endswith("next-line"):
                next_line.setdefault(lineno + 1, set()).update(rules)
            else:
                table.setdefault(lineno, set()).update(rules)
    if next_line:
        spans: Dict[int, int] = {}
        if tree is not None:
            for node in ast.walk(tree):
                if isinstance(node, ast.stmt):
                    end = getattr(node, "end_lineno", None) or node.lineno
                    spans[node.lineno] = max(
                        spans.get(node.lineno, node.lineno), end
                    )
        for target, rules in next_line.items():
            for line in range(target, spans.get(target, target) + 1):
                table.setdefault(line, set()).update(rules)
    return table


def _is_suppressed(finding: Finding, table: Dict[int, Set[str]]) -> bool:
    suppressed = table.get(finding.line)
    if not suppressed:
        return False
    return _ALL in suppressed or finding.rule_id in suppressed


def _parse_error_finding(path: str, exc: SyntaxError) -> Finding:
    return Finding(
        path=path,
        line=exc.lineno or 1,
        col=(exc.offset or 1),
        rule_id=PARSE_ERROR,
        message=f"file does not parse: {exc.msg}",
    )


def _lint_tree(
    tree: ast.Module,
    ctx: RuleContext,
    rules: Sequence[Rule],
) -> List[Finding]:
    """Run ``rules`` over an already-parsed module."""
    active = [rule for rule in rules if rule.applies_to(ctx)]
    dispatch: Dict[Type[ast.AST], List[Rule]] = {}
    for rule in active:
        for node_type in rule.node_types:
            dispatch.setdefault(node_type, []).append(rule)
    if dispatch:
        for node in ast.walk(tree):
            for rule in dispatch.get(type(node), ()):
                rule.visit(node, ctx)
    for rule in active:
        rule.finish(tree, ctx)
    table = suppressions_by_line(ctx.source, tree)
    return sorted(f for f in ctx.findings if not _is_suppressed(f, table))


def lint_source(
    source: str,
    path: str,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint one in-memory module; ``path`` scopes path-sensitive rules."""
    ctx = RuleContext(path, source)
    if rules is None:
        rules = all_rules()
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [_parse_error_finding(ctx.path, exc)]
    return _lint_tree(tree, ctx, rules)


def lint_file(
    path: str,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint one file on disk (read errors become findings, not crashes)."""
    display = os.path.relpath(path) if not os.path.isabs(path) else path
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        return [
            Finding(
                path=RuleContext(display, "").path,
                line=1,
                col=1,
                rule_id=PARSE_ERROR,
                message=f"file is unreadable: {exc}",
            )
        ]
    return lint_source(source, display, rules)


def lint_paths(
    paths: Iterable[str],
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths``; findings sorted for output.

    Rule instances are shared across files (rules are stateless between
    files by construction — all per-file state lives in the context),
    so the registry is consulted once per run, not once per file.
    """
    if rules is None:
        rules = all_rules()
    findings: List[Finding] = []
    for path in iter_python_files(list(paths)):
        findings.extend(lint_file(path, rules))
    return sorted(findings)

"""The referlint command line: ``python -m repro.devtools.lint``.

Usage::

    python -m repro.devtools.lint [--select IDS] [--list-rules] [paths...]

Lints every ``.py`` file under the given paths (default: the current
directory) with the full REFER rule pack and prints findings.  Exit
codes are CI-oriented:

* ``0`` — no findings,
* ``1`` — at least one finding (or a file that does not parse),
* ``2`` — the linter itself was misused (bad arguments, missing files).

A finding is fixed or carries an inline ``# referlint: disable=ID``
with its reason (see :mod:`repro.devtools.driver`); there is no other
way to hide one.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from repro.devtools.driver import lint_paths
from repro.devtools.rules import Rule, all_rules


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description="referlint: AST-based invariant checks for REFER.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: current directory)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    return parser


def _select_rules(spec: Optional[str]) -> List[Rule]:
    rules = all_rules()
    if spec is None:
        return rules
    wanted = {rule_id.strip().upper() for rule_id in spec.split(",") if rule_id.strip()}
    known = {rule.rule_id for rule in rules}
    unknown = wanted - known
    if unknown:
        raise SystemExit(
            f"referlint: unknown rule id(s): {', '.join(sorted(unknown))}"
        )
    return [rule for rule in rules if rule.rule_id in wanted]


def _print_rule_table(rules: Sequence[Rule]) -> None:
    width = max(len(rule.title) for rule in rules)
    for rule in rules:
        print(f"{rule.rule_id}  {rule.title.ljust(width)}  {rule.rationale}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        rules = _select_rules(args.select)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise
    if args.list_rules:
        _print_rule_table(rules)
        return 0

    paths = args.paths or ["."]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print(
            f"referlint: no such file or directory: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2

    findings = lint_paths(paths, rules)
    for finding in findings:
        print(finding.format_text())
    print(f"{len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())

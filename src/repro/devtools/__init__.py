"""referlint — AST-based invariant checks for the REFER codebase.

The Python type system cannot see REFER's two load-bearing invariants:
simulations must be bit-reproducible (all randomness through
``RngStreams``, all time through the sim clock) and failures must stay
typed (``repro.errors``) rather than being silently swallowed.  This
package is the static-analysis pass that keeps every PR honest about
them: a tiny, stdlib-only lint framework (single-parse multi-rule
driver, inline suppressions) plus the REFER rule pack — ten rules that
each match one expression of one file (see
:mod:`repro.devtools.rulepack`).  What a run *does* is guarded
dynamically: the pinned digests, their hash-seed twin and the
first-divergence debugger (:mod:`repro.devtools.divergence`).

Run it as a CLI::

    python -m repro.devtools.lint src tests

or from code::

    from repro.devtools import lint_paths
    findings = lint_paths(["src"])
"""

from repro.devtools.driver import lint_file, lint_paths, lint_source
from repro.devtools.findings import ERROR, WARNING, Finding
from repro.devtools.rules import REGISTRY, Rule, RuleContext, all_rules, register

__all__ = [
    "ERROR",
    "Finding",
    "REGISTRY",
    "Rule",
    "RuleContext",
    "WARNING",
    "all_rules",
    "lint_file",
    "lint_paths",
    "lint_source",
    "register",
]

"""referlint — AST-based invariant checks for the REFER codebase.

The Python type system cannot see REFER's two load-bearing invariants:
simulations must be bit-reproducible (all randomness through
``RngStreams``, all time through the sim clock) and failures must stay
typed (``repro.errors``) rather than being silently swallowed.  This
package is the static-analysis pass that keeps every PR honest about
them, stdlib only: ten rules, each a function matching one expression
of one file (:data:`RULES`, in :mod:`repro.devtools.rulepack`), a
driver that walks each file once, and one exact allow-list for the
findings kept on purpose (:data:`ALLOWED`).  What a run *does* is
guarded dynamically: the pinned digests, their hash-seed twin and the
first-divergence debugger (:mod:`repro.devtools.divergence`).

Run it as a CLI::

    python -m repro.devtools.lint

or from code::

    from repro.devtools import lint_paths
    problems = lint_paths(["src"])
"""

from repro.devtools.driver import ALLOWED, lint_paths, lint_source
from repro.devtools.findings import Finding
from repro.devtools.rulepack import RULES

__all__ = ["ALLOWED", "Finding", "RULES", "lint_paths", "lint_source"]

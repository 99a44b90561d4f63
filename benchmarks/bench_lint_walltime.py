"""referlint wall-time gate: the full-tree analysis stays affordable.

The interprocedural passes (scope build, per-function dataflow, the
summary fixpoint) multiplied the work the linter does per file; this
bench keeps that honest.  It lints ``src`` and ``tests`` with the
complete rule pack — the exact workload of the CI lint step and of the
package-quality test — ``REPEATS`` times, takes the best pass (best-of
discards scheduler noise), and gates it at ``BUDGET`` seconds of wall
time (20 s, an order of magnitude above today's cost so only a
complexity regression, not machine jitter, can trip it).

Alongside the human table, a machine-readable
``results/BENCH_lint_walltime.json`` twin records the timings, the
corpus size and the convergence round count, so a slowdown can be
diffed across PRs.
"""

import gc
import json
import pathlib
import time

from repro.devtools.callgraph import Project
from repro.devtools.driver import iter_python_files, lint_paths
from repro.devtools.rules import all_rules

from _common import RESULTS_DIR

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
LINT_PATHS = [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]

REPEATS = 3
BUDGET = 20.0


def timed_lint():
    gc.collect()
    start = time.perf_counter()
    findings = lint_paths(LINT_PATHS, all_rules())
    return time.perf_counter() - start, findings


def test_full_tree_lint_walltime_gate():
    file_count = sum(1 for _ in iter_python_files(LINT_PATHS))
    assert file_count > 50, "corpus unexpectedly small — wrong paths?"

    timings = []
    findings = []
    for _ in range(REPEATS):
        elapsed, findings = timed_lint()
        timings.append(elapsed)
    best = min(timings)

    # Convergence observability: how many fixpoint rounds the project
    # pass needed on the real tree (MAX_ROUNDS means a cycle hit the
    # bound — worth noticing before it becomes a cost problem).
    loaded = []
    import ast

    for path in iter_python_files([str(REPO_ROOT / "src")]):
        with open(path, "r", encoding="utf-8") as handle:
            loaded.append((path, ast.parse(handle.read())))
    project = Project.build(loaded)

    table = "\n".join(
        [
            "referlint full-tree wall time"
            " (%d files, best of %d)" % (file_count, REPEATS),
            "",
            "  best       %8.3f s   (budget %.1f s)" % (best, BUDGET),
            "  worst      %8.3f s" % max(timings),
            "  findings   %8d" % len(findings),
            "  summaries  %8d" % len(project.summaries),
            "  rounds     %8d" % project.rounds,
        ]
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "lint_walltime.txt").write_text(
        table + "\n", encoding="utf-8"
    )
    (RESULTS_DIR / "BENCH_lint_walltime.json").write_text(
        json.dumps(
            {
                "budget_s": BUDGET,
                "best_s": best,
                "worst_s": max(timings),
                "repeats": REPEATS,
                "files": file_count,
                "findings": len(findings),
                "summaries": len(project.summaries),
                "fixpoint_rounds": project.rounds,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    print("\n" + table)

    assert best <= BUDGET, (
        f"full-tree lint took {best:.3f}s, budget {BUDGET:.1f}s"
    )

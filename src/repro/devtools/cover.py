"""Stdlib line-coverage measurement and gate for the test suite.

The repository refuses third-party runtime dependencies, so the
coverage gate is implemented on the interpreter's own hooks: a
``sys.settrace`` tracer records which lines of ``src/repro`` execute
while the test suite runs, and the executable-line universe comes from
``dis.findlinestarts`` over every compiled code object.  The numbers
are therefore self-consistent (same bytecode view on both sides of the
ratio) rather than identical to coverage.py's — the gate pins *this
tool's* measurement, and CI runs this tool.

Cost control: tracing is disabled per code object as soon as all of
its lines have been seen, so hot loops stop paying the line-event tax
after their first execution; in practice the suite runs within a small
multiple of its untraced time.

Exclusions (documented, deterministic):

* ``repro/devtools`` — the measuring tool cannot trace itself (it is
  imported before tracing starts), and lint/coverage plumbing is not
  simulation surface;
* any module already imported when measurement starts (their
  module-level lines have already run and can never be observed).

CLI::

    PYTHONPATH=src python -m repro.devtools.cover --fail-under 80 -- -q tests

Everything after ``--`` is handed to ``pytest.main``; the process
exits non-zero if pytest fails *or* total coverage drops below the
threshold.
"""

from __future__ import annotations

import argparse
import dis
import pathlib
import sys
import threading
from dataclasses import dataclass
from types import CodeType
from typing import Dict, Iterable, List, Optional, Set, Tuple


def _code_lines(code: CodeType) -> Set[int]:
    """Line numbers with bytecode in ``code`` (this object only).

    Filters the synthetic line-0 entries some interpreter versions
    attach to setup opcodes (e.g. RESUME) — no source line is 0.
    """
    return {line for _, line in dis.findlinestarts(code) if line}


def _walk_code(code: CodeType) -> Iterable[CodeType]:
    """``code`` and every code object nested in its constants."""
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _walk_code(const)


def executable_lines(path: pathlib.Path) -> Set[int]:
    """Every line of ``path`` that compiles to bytecode.

    The universe the coverage ratio is measured against: docstrings,
    comments and blank lines don't count; ``def``/``class`` headers and
    module-level statements do.
    """
    source = path.read_text(encoding="utf-8")
    module = compile(source, str(path), "exec")
    lines: Set[int] = set()
    for code in _walk_code(module):
        lines |= _code_lines(code)
    return lines


@dataclass(frozen=True)
class FileCoverage:
    """Measured coverage of one source file."""

    path: str
    executable: int
    covered: int

    @property
    def percent(self) -> float:
        if self.executable == 0:
            return 100.0
        return 100.0 * self.covered / self.executable


@dataclass(frozen=True)
class CoverageReport:
    """Aggregate of one measurement run."""

    files: Tuple[FileCoverage, ...]

    @property
    def executable(self) -> int:
        return sum(f.executable for f in self.files)

    @property
    def covered(self) -> int:
        return sum(f.covered for f in self.files)

    @property
    def percent(self) -> float:
        if self.executable == 0:
            return 100.0
        return 100.0 * self.covered / self.executable


class LineCoverage:
    """Records executed lines of a fixed file universe via settrace."""

    def __init__(self, universe: Dict[str, Set[int]]) -> None:
        self._universe = universe
        self._seen: Dict[str, Set[int]] = {name: set() for name in universe}
        #: Code objects whose lines are all seen — tracing is switched
        #: off for them, which is what keeps the tracer affordable.
        self._saturated: Set[CodeType] = set()
        self._remaining: Dict[CodeType, Set[int]] = {}
        self._prev_trace = None
        self._prev_thread_trace = None

    # -- tracer hooks --------------------------------------------------------

    def _global_trace(self, frame, event, arg):
        if event != "call":
            return None
        code = frame.f_code
        if code in self._saturated:
            return None
        seen = self._seen.get(code.co_filename)
        if seen is None:
            return None
        remaining = self._remaining.get(code)
        if remaining is None:
            remaining = _code_lines(code) - seen
            self._remaining[code] = remaining
            if not remaining:
                self._saturated.add(code)
                return None
        return self._local_trace

    def _local_trace(self, frame, event, arg):
        if event == "line":
            code = frame.f_code
            self._seen[code.co_filename].add(frame.f_lineno)
            remaining = self._remaining[code]
            remaining.discard(frame.f_lineno)
            if not remaining:
                self._saturated.add(code)
                return None
        return self._local_trace

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        # An enclosing tracer (e.g. the coverage gate running this
        # tool's own tests) must survive a nested measurement —
        # stop() restores it instead of unconditionally clearing.
        self._prev_trace = sys.gettrace()
        self._prev_thread_trace = getattr(threading, "_trace_hook", None)
        threading.settrace(self._global_trace)
        sys.settrace(self._global_trace)

    def stop(self) -> None:
        sys.settrace(self._prev_trace)
        threading.settrace(self._prev_thread_trace)  # type: ignore[arg-type]

    def report(self) -> CoverageReport:
        files = tuple(
            FileCoverage(
                path=name,
                executable=len(lines),
                covered=len(self._seen[name] & lines),
            )
            for name, lines in sorted(self._universe.items())
        )
        return CoverageReport(files=files)


#: Top-level packages the coverage gate does not measure.
EXCLUDED_PARTS = ("devtools",)


def build_universe(
    package_root: pathlib.Path,
    already_imported: Optional[Iterable[str]] = None,
) -> Dict[str, Set[int]]:
    """Executable-line map for every measurable file under the package
    (outside :data:`EXCLUDED_PARTS`).

    ``already_imported`` names files whose module body ran before the
    tracer existed; they are excluded rather than reported as
    mostly-uncovered.
    """
    skip = set(already_imported or ())
    universe: Dict[str, Set[int]] = {}
    for path in sorted(package_root.rglob("*.py")):
        relative = path.relative_to(package_root)
        if relative.parts and relative.parts[0] in EXCLUDED_PARTS:
            continue
        resolved = str(path.resolve())
        if resolved in skip:
            continue
        universe[resolved] = executable_lines(path)
    return universe


def _imported_repro_files() -> Set[str]:
    files: Set[str] = set()
    for module in list(sys.modules.values()):
        path = getattr(module, "__file__", None)
        if path:
            files.add(str(pathlib.Path(path).resolve()))
    return files


def format_report(
    report: CoverageReport, package_root: pathlib.Path, verbose: bool
) -> str:
    lines: List[str] = []
    if verbose:
        width = max(
            (len(_short(f.path, package_root)) for f in report.files),
            default=10,
        )
        lines.append(f"{'file':<{width}}  exec  miss  cover")
        for f in report.files:
            lines.append(
                f"{_short(f.path, package_root):<{width}}  "
                f"{f.executable:4d}  {f.executable - f.covered:4d}  "
                f"{f.percent:5.1f}%"
            )
    lines.append(
        f"TOTAL {report.covered}/{report.executable} lines "
        f"= {report.percent:.1f}%"
    )
    return "\n".join(lines)


def _short(path: str, package_root: pathlib.Path) -> str:
    try:
        return str(pathlib.Path(path).relative_to(package_root.parent))
    except ValueError:
        return path


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.cover",
        description="stdlib line-coverage gate over src/repro",
    )
    parser.add_argument(
        "--fail-under",
        type=float,
        default=0.0,
        help="exit 2 if total coverage (percent) is below this",
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help="print the per-file table, not just the total",
    )
    parser.add_argument(
        "pytest_args",
        nargs="*",
        help="arguments after -- are passed to pytest (default: -q tests)",
    )
    args = parser.parse_args(argv)
    pytest_args = args.pytest_args or ["-q", "tests"]

    import repro

    package_root = pathlib.Path(repro.__file__).resolve().parent
    universe = build_universe(
        package_root, already_imported=_imported_repro_files()
    )
    tracer = LineCoverage(universe)

    import pytest

    tracer.start()
    try:
        exit_code = int(pytest.main(pytest_args))
    finally:
        tracer.stop()
    report = tracer.report()
    # Developer CLI: the coverage report goes to the terminal by design.
    print(
        format_report(report, package_root, verbose=args.report)
    )
    if exit_code != 0:
        return exit_code
    if report.percent < args.fail_under:
        print(
            f"coverage gate: {report.percent:.1f}% "
            f"< --fail-under {args.fail_under:.1f}%"
        )
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The referlint command line: ``python -m repro.devtools.lint``.

Usage::

    python -m repro.devtools.lint [paths...]

Lints every ``.py`` file under the given paths (default: ``src tests
benchmarks examples``) with every rule and compares the findings with
the allow-list, :data:`repro.devtools.driver.ALLOWED`.  Exit codes are
CI-oriented:

* ``0`` — the findings are exactly the allowed ones,
* ``1`` — a finding outside the allow-list, or an allowed one gone,
* ``2`` — a path that does not exist (the CLI takes no flags).

A file that does not parse raises ``SyntaxError`` naming it.
"""

import os
import sys
from typing import Optional, Sequence

from repro.devtools.driver import DEFAULT_PATHS, lint_paths


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    paths = list(sys.argv[1:] if argv is None else argv)
    paths = paths or list(DEFAULT_PATHS)
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print(
            f"referlint: no such file or directory: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2

    problems = lint_paths(paths)
    for line in problems:
        print(line)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

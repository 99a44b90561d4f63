"""Where each referlint rule applies: plain predicates on a file's path.

Paths are posix-separated (the driver normalises them).  Test files —
anything under ``tests/``, ``conftest.py``, and the files pytest
collects, ``test_*.py`` and ``bench_*.py`` (``pyproject.toml``) — opt
out of the library-only rules: tests assert exact floats of
deterministic runs on purpose, may drive ``random.Random`` instances
directly, and may print.
"""

from pathlib import PurePosixPath


def is_test_path(path: str) -> bool:
    """Whether ``path`` is a test file (relaxed rule scope)."""
    parts = PurePosixPath(path).parts
    name = parts[-1] if parts else ""
    return (
        "tests" in parts
        or name.startswith(("test_", "bench_"))
        or name == "conftest.py"
    )


def anywhere(path: str) -> bool:
    """REF003, REF005, REF006: silently swallowed exceptions, shared
    mutable defaults and a stale ``__all__`` harm a test as much as the
    library."""
    return True


def not_tests(path: str) -> bool:
    """REF001, REF004: every file but tests."""
    return not is_test_path(path)


def library(path: str) -> bool:
    """REF002, REF010: non-test code under ``repro/``.  Standalone
    drivers (``benchmarks/``, ``examples/``) time themselves and seed
    their own synthetic workloads."""
    return not_tests(path) and "repro" in PurePosixPath(path).parts


def library_but_package_init(path: str) -> bool:
    """REF013: library code except ``__init__.py``, whose imports are
    the package's re-exports."""
    return library(path) and PurePosixPath(path).name != "__init__.py"


def library_but_rng_factory(path: str) -> bool:
    """REF009: library code except ``util/rng.py``, the stream factory."""
    return library(path) and not path.endswith("util/rng.py")


#: Directories whose modules are protocol code (REF007).
_PROTOCOL_DIRS = frozenset({
    "sim", "net", "core", "wsan", "chaos", "recovery",
    "kautz", "dht", "baselines", "telemetry", "qos",
})

#: Files outside those directories that must not print either.
_PROTOCOL_FILES = (
    "devtools/cover.py",
    # The divergence debugger's only stdout is the final report/JSON
    # verdict (allowed); any other print() in its replay machinery is
    # a bug.
    "devtools/divergence.py",
    # The campaign runner runs under sweep CLIs whose stdout is the
    # report; it reports nothing but its outcome or its CampaignError.
    "experiments/parallel.py",
    "experiments/journal.py",
)


def protocol_code(path: str) -> bool:
    """REF007: non-test modules of the simulation stack."""
    return not_tests(path) and (
        not _PROTOCOL_DIRS.isdisjoint(PurePosixPath(path).parts)
        or path.endswith(_PROTOCOL_FILES)
    )

"""The benchmark harness reads its effort knobs from the environment."""

import importlib.util
import pathlib
import sys

import pytest

BENCH_COMMON = (
    pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "_common.py"
)


@pytest.fixture()
def bench_common():
    spec = importlib.util.spec_from_file_location(
        "bench_common_under_test", BENCH_COMMON
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop("bench_common_under_test", None)


class TestBenchKnobs:
    def test_workers_knob(self, bench_common, monkeypatch):
        monkeypatch.delenv("REFER_BENCH_WORKERS", raising=False)
        assert bench_common.bench_workers() == 0
        monkeypatch.setenv("REFER_BENCH_WORKERS", "4")
        assert bench_common.bench_workers() == 4

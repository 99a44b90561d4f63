"""Positive and negative cases for every rule in the REFER pack.

Each rule gets at least one snippet it must flag and one it must not.
Snippets are linted as in-memory sources with a path chosen to land in
(or out of) the rule's scope.  ``TestDesignSeededBugs`` holds the three
bugs of DESIGN.md's seeded-bug table the rules catch.
"""

import pytest

from repro.devtools import lint_source

LIB = "src/repro/net/example.py"      # library file, protocol dir
UTIL = "src/repro/util/example.py"    # library file, not a protocol dir
BENCH = "benchmarks/bench_example.py"  # standalone driver, not under repro/
TEST = "tests/net/test_example.py"    # test file


def ids(findings):
    return [f.rule_id for f in findings]


def lint(source, path=LIB):
    return lint_source(source, path)


class TestRef001GlobalRandom:
    def test_flags_global_random_call(self):
        findings = lint("import random\nx = random.random()\n")
        assert ids(findings) == ["REF001"]
        assert findings[0].line == 2

    def test_flags_random_seed(self):
        assert ids(lint("import random\nrandom.seed(7)\n")) == ["REF001"]

    def test_flags_from_import_of_draw_function(self):
        assert ids(lint("from random import randint\nroll = randint\n")) == ["REF001"]

    def test_allows_random_random_instances(self):
        source = (
            "import random\n"
            "def f(rng: random.Random) -> float:\n"
            "    return rng.random()\n"
        )
        assert lint(source) == []

    def test_construction_is_ref009_territory_not_ref001(self):
        # Constructing a generator is legal for REF001 (no global state)
        # but REF009 insists it happen inside RngStreams.
        findings = lint("import random\nr = random.Random(42)\n")
        assert ids(findings) == ["REF009"]

    def test_allows_from_random_import_random_class_in_rng_factory(self):
        source = "from random import Random\nr = Random(1)\n"
        assert lint(source, path="src/repro/util/rng.py") == []
        assert ids(lint(source)) == ["REF009"]

    def test_annotation_only_usage_is_legal(self):
        assert lint("import random\nrng: random.Random\n") == []

    def test_skips_test_files(self):
        assert lint("import random\nx = random.random()\n", path=TEST) == []


class TestRef002WallClock:
    def test_flags_time_time_in_sim_scope(self):
        findings = lint("import time\nnow = time.time()\n")
        assert ids(findings) == ["REF002"]

    def test_flags_util_helper_reading_the_clock(self):
        # The helper a sim module would launder the clock through is
        # the finding; no call graph needed to follow it.
        source = (
            "import time\n"
            "def read_clock():\n"
            "    return time.perf_counter()\n"
        )
        findings = lint(source, path=UTIL)
        assert ids(findings) == ["REF002"]
        assert findings[0].line == 3

    def test_flags_from_time_import_of_a_clock(self):
        findings = lint(
            "from time import perf_counter, sleep\nclocks = perf_counter, sleep\n",
            path=UTIL,
        )
        assert ids(findings) == ["REF002"]
        assert "perf_counter" in findings[0].message

    @pytest.mark.parametrize(
        "name",
        [
            "process_time_ns", "thread_time", "thread_time_ns",
            "clock_gettime", "clock_gettime_ns",
        ],
    )
    @pytest.mark.parametrize(
        "form",
        [
            "import time\nt = time.{}(0)\n",
            "from time import {0}\nclock = {0}\n",
        ],
        ids=["call", "from-import"],
    )
    def test_flags_every_host_clock(self, name, form):
        findings = lint(form.format(name))
        assert ids(findings) == ["REF002"]
        assert name in findings[0].message

    def test_allows_from_time_import_sleep(self):
        assert lint("from time import sleep\nnap = sleep\n") == []

    def test_flags_datetime_now(self):
        source = "from datetime import datetime\nt = datetime.now()\n"
        assert ids(lint(source)) == ["REF002"]

    def test_flags_time_monotonic(self):
        assert ids(lint("import time\nt = time.monotonic()\n")) == ["REF002"]

    def test_allows_sim_clock(self):
        assert lint("def f(sim):\n    return sim.now\n") == []

    def test_allows_wall_clock_outside_the_library(self):
        # Benchmarks and examples time themselves; they are not repro/.
        assert lint("import time\nt = time.time()\n", path=BENCH) == []

    def test_skips_test_files(self):
        assert lint("import time\nt = time.time()\n", path=TEST) == []


class TestRef003SilentExcept:
    def test_flags_except_exception_pass(self):
        source = "try:\n    f()\nexcept Exception:\n    pass\n"
        findings = lint(source)
        assert ids(findings) == ["REF003"]
        assert findings[0].line == 3

    def test_flags_bare_except_continue(self):
        source = (
            "for x in xs:\n"
            "    try:\n"
            "        f(x)\n"
            "    except:\n"
            "        continue\n"
        )
        assert ids(lint(source)) == ["REF003"]

    def test_flags_tuple_containing_exception(self):
        source = "try:\n    f()\nexcept (ValueError, Exception):\n    pass\n"
        assert ids(lint(source)) == ["REF003"]

    def test_allows_narrow_except_pass(self):
        source = "try:\n    f()\nexcept KeyError:\n    pass\n"
        assert lint(source) == []

    def test_allows_broad_except_with_real_body(self):
        source = "try:\n    f()\nexcept Exception:\n    log()\n    raise\n"
        assert lint(source) == []

    def test_applies_to_test_files_too(self):
        source = "try:\n    f()\nexcept Exception:\n    pass\n"
        assert ids(lint(source, path=TEST)) == ["REF003"]


class TestRef004FloatEquality:
    def test_flags_eq_against_float_literal(self):
        assert ids(lint("ok = remaining == 0.0\n")) == ["REF004"]

    def test_flags_noteq_and_reversed_operands(self):
        assert ids(lint("ok = 1.0 != quality\n")) == ["REF004"]

    def test_one_finding_per_comparison(self):
        assert ids(lint("ok = 0.0 == x == 1.0\n")) == ["REF004"]

    def test_allows_ordering_comparisons(self):
        assert lint("ok = remaining <= 0.0 or quality >= 1.0\n") == []

    def test_allows_integer_equality(self):
        assert lint("ok = count == 0\n") == []

    def test_allows_float_variable_equality(self):
        # Literal-free equality (e.g. snapshot comparisons) is out of
        # scope for REF004.
        assert lint("ok = a == b\n") == []

    def test_skips_test_files(self):
        assert lint("assert stat.mean == 0.0\n", path=TEST) == []


class TestRef005MutableDefault:
    def test_flags_list_literal_default(self):
        assert ids(lint("def f(acc=[]):\n    return acc\n")) == ["REF005"]

    def test_flags_dict_call_default(self):
        assert ids(lint("def f(cfg=dict()):\n    return cfg\n")) == ["REF005"]

    def test_flags_kwonly_set_default(self):
        source = "def f(*, seen={1}):\n    return seen\n"
        assert ids(lint(source)) == ["REF005"]

    def test_flags_lambda_default(self):
        assert ids(lint("g = lambda xs=[]: xs\n")) == ["REF005"]

    def test_allows_none_default(self):
        source = (
            "def f(acc=None):\n"
            "    if acc is None:\n"
            "        acc = []\n"
            "    return acc\n"
        )
        assert lint(source) == []

    def test_allows_immutable_defaults(self):
        assert lint("def f(a=0, b=(), c='x', d=frozenset()):\n    pass\n") == []

    def test_applies_to_test_files_too(self):
        assert ids(lint("def f(acc=[]):\n    pass\n", path=TEST)) == ["REF005"]


class TestRef006Exports:
    def test_flags_missing_export(self):
        source = "__all__ = ['ghost']\n"
        findings = lint(source)
        assert ids(findings) == ["REF006"]
        assert "ghost" in findings[0].message

    def test_allows_pep562_lazy_exports(self):
        source = (
            "__all__ = ['Lazy']\n"
            "def __getattr__(name):\n"
            "    '''Resolve lazy exports.'''\n"
            "    raise AttributeError(name)\n"
        )
        assert lint(source) == []

    def test_lazy_module_still_flags_undocumented_defs(self):
        source = (
            "__all__ = ['f', 'Lazy']\n"
            "def __getattr__(name):\n"
            "    '''Resolve lazy exports.'''\n"
            "    raise AttributeError(name)\n"
            "def f():\n"
            "    return 1\n"
        )
        findings = lint(source)
        assert ids(findings) == ["REF006"]
        assert "docstring" in findings[0].message

    def test_flags_undocumented_exported_function(self):
        source = (
            "__all__ = ['f']\n"
            "def f():\n"
            "    return 1\n"
        )
        findings = lint(source)
        assert ids(findings) == ["REF006"]
        assert "docstring" in findings[0].message

    def test_allows_documented_defs_and_imports(self):
        source = (
            "from os.path import join\n"
            "import sys\n"
            "__all__ = ['join', 'sys', 'VERSION', 'f', 'C']\n"
            "VERSION = '1.0'\n"
            "def f():\n"
            "    '''Documented.'''\n"
            "class C:\n"
            "    '''Documented.'''\n"
        )
        assert lint(source) == []

    def test_allows_aliased_import_export(self):
        source = "import os.path as p\n__all__ = ['p']\n"
        assert lint(source) == []

    def test_module_without_all_is_ignored(self):
        assert lint("def undocumented():\n    pass\n") == []

    def test_dynamic_all_is_ignored(self):
        # A computed __all__ cannot be checked statically; stay silent.
        assert lint("__all__ = sorted(globals())\n") == []


class TestRef007PrintInProtocolCode:
    def test_flags_print_in_protocol_module(self):
        findings = lint("print('delivered')\n")
        assert ids(findings) == ["REF007"]
        assert findings[0].line == 1

    def test_flags_print_in_every_protocol_directory(self):
        for directory in (
            "sim", "net", "core", "wsan", "chaos", "recovery",
            "kautz", "dht", "baselines", "telemetry",
        ):
            path = f"src/repro/{directory}/example.py"
            assert ids(lint("print(1)\n", path=path)) == ["REF007"]

    def test_flags_print_in_runtime_tracer(self):
        path = "src/repro/devtools/cover.py"
        assert ids(lint("print(1)\n", path=path)) == ["REF007"]

    @pytest.mark.parametrize(
        "path",
        [
            "src/repro/qos/example.py",
            "src/repro/devtools/divergence.py",
            "src/repro/experiments/parallel.py",
            "src/repro/experiments/journal.py",
        ],
    )
    def test_flags_print_in_the_other_stdout_free_files(self, path):
        assert ids(lint("print(1)\n", path=path)) == ["REF007"]

    def test_allows_print_outside_protocol_dirs(self):
        # The experiments/figures/report CLIs render to stdout by design.
        assert lint("print('table')\n", path="src/repro/experiments/figures.py") == []
        assert lint("print('x')\n", path=UTIL) == []

    def test_allows_print_in_tests(self):
        assert lint("print('debug')\n", path=TEST) == []

    def test_allows_shadowed_print_method(self):
        # Only the builtin name is flagged, not attribute calls.
        assert lint("logger.print('x')\n") == []


class TestRef009RngFactory:
    @pytest.mark.parametrize(
        "source",
        [
            pytest.param("import random\nad_hoc = random.Random(7)\n", id="seeded"),
            pytest.param("import random\nunseeded = random.Random()\n", id="unseeded"),
            pytest.param(
                "from random import Random\nmake = Random\n", id="from-import"
            ),
        ],
    )
    def test_flags_generator_built_outside_the_factory(self, source):
        path = "src/repro/baselines/example.py"
        assert ids(lint(source, path=path)) == ["REF009"]

    @pytest.mark.parametrize(
        "source,path",
        [
            # Taking a stream by any name is RngStreams' business.
            pytest.param("mac = streams.stream('mac')\n", LIB, id="stream-literal"),
            pytest.param(
                "fault = streams.stream(f'chaos.{i}.{kind}')\n", LIB,
                id="stream-fstring",
            ),
            pytest.param(
                "import random\nstream = random.Random(seed)\n",
                "src/repro/util/rng.py",
                id="the-factory",
            ),
            # Standalone drivers seed their own synthetic workloads.
            pytest.param(
                "import random\nrng = random.Random(3)\n", BENCH, id="benchmark"
            ),
            pytest.param(
                "import random\nrng = random.Random(3)\n", TEST, id="test-file"
            ),
        ],
    )
    def test_allows(self, source, path):
        assert lint(source, path=path) == []


class TestRef010IdentityAndHash:
    @pytest.mark.parametrize(
        "source",
        [
            pytest.param("ordered = sorted(nodes, key=id)\n", id="key-id"),
            pytest.param("nodes.sort(key=hash)\n", id="key-hash"),
            pytest.param("by_addr = {id(n): n for n in nodes}\n", id="dict-key"),
            pytest.param("first = a if id(a) < id(b) else b\n", id="compare"),
            pytest.param("table[hash(obj)] = obj\n", id="subscript"),
            pytest.param("seen.add(id(node))\n", id="set-add"),
            # str hashes are salted per process.
            pytest.param("bucket = hash('refer') % 8\n", id="str-hash"),
        ],
    )
    def test_flags_identity_and_hash_values(self, source):
        findings = lint(source, path=UTIL)
        assert findings and set(ids(findings)) == {"REF010"}

    def test_one_finding_per_call(self):
        findings = lint("first = a if id(a) < id(b) else b\n")
        assert ids(findings) == ["REF010", "REF010"]

    @pytest.mark.parametrize(
        "source,path",
        [
            pytest.param(
                "class K:\n"
                "    def __hash__(self):\n"
                "        return hash(('K', self.degree, self.diameter))\n",
                "src/repro/kautz/example.py",
                id="inside-__hash__",
            ),
            pytest.param(
                "ordered = sorted(nodes, key=lambda n: n.node_id)\n", LIB,
                id="key-lambda",
            ),
            pytest.param(
                "by_id = {n.node_id: n for n in nodes}\n", LIB, id="stable-id"
            ),
            pytest.param(
                "digest = hashing.consistent_hash(name)\n", LIB, id="util-hashing"
            ),
            pytest.param("cell = self.id\nh = obj.hash()\n", LIB, id="attributes"),
            pytest.param(
                "by_addr = {id(n): n for n in nodes}\n", TEST, id="test-file"
            ),
            pytest.param(
                "by_addr = {id(n): n for n in nodes}\n", BENCH, id="benchmark"
            ),
        ],
    )
    def test_allows(self, source, path):
        assert lint(source, path=path) == []


class TestRef013UnusedImport:
    @pytest.mark.parametrize(
        "source,name",
        [
            pytest.param(
                "from typing import List, Optional\nx: Optional[int]\n",
                "List", id="from-import",
            ),
            pytest.param("import random\n", "random", id="import"),
            pytest.param(
                "import repro.net.mac as mac_module\n", "mac_module",
                id="aliased",
            ),
            # Named only in a docstring: prose does not use an import.
            pytest.param(
                '"""Counters (``Counter.inc``)."""\n'
                "from repro.telemetry.registry import Counter\n",
                "Counter", id="docstring-only",
            ),
        ],
    )
    def test_flags_unused_module_level_import(self, source, name):
        findings = lint(source)
        assert ids(findings) == ["REF013"]
        assert repr(name) in findings[0].message

    @pytest.mark.parametrize(
        "source,path",
        [
            pytest.param("import os.path\nsep = os.sep\n", LIB, id="dotted"),
            pytest.param(
                "from repro.net.mac import ContentionMac\n"
                "__all__ = ['ContentionMac']\n",
                UTIL, id="exported",
            ),
            pytest.param(
                "from __future__ import annotations\n", LIB, id="future"
            ),
            pytest.param(
                "def f():\n    import json\n", LIB, id="function-level"
            ),
            pytest.param(
                "from repro.net.mac import ContentionMac\n",
                "src/repro/net/__init__.py", id="package-re-export",
            ),
            pytest.param("import random\n", TEST, id="test-file"),
            pytest.param("import random\n", BENCH, id="benchmark"),
        ],
    )
    def test_allows(self, source, path):
        assert lint(source, path=path) == []


class TestScopeClassification:
    @pytest.mark.parametrize(
        "path",
        [
            "tests/net/x.py",
            "src/repro/net/test_thing.py",
            "conftest.py",
            "benchmarks/bench_thing.py",
        ],
    )
    def test_test_paths_skip_library_rules(self, path):
        assert lint_source("x = 1.0 == y\n", path) == []

    def test_windows_separators_are_normalised(self):
        findings = lint_source("x = y == 0.0\n", "src\\repro\\net\\m.py")
        assert ids(findings) == ["REF004"]
        assert findings[0].path == "src/repro/net/m.py"


class TestDesignSeededBugs:
    """Rows 9–11 of DESIGN.md's table "What guards determinism", each
    at the file it was seeded into."""

    @pytest.mark.parametrize(
        "source,path,rule_id",
        [
            pytest.param(
                "import time\n"
                "def host_jitter():\n"
                "    return time.perf_counter() % 1\n",
                "src/repro/util/hostclock.py",
                "REF002",
                id="row9-host-clock-helper",
            ),
            pytest.param(
                "def order(reachable):\n"
                "    return sorted(reachable, key=id)\n",
                "src/repro/core/routing.py",
                "REF010",
                id="row10-key-id",
            ),
            pytest.param(
                "import random\n"
                "hello_jitter = random.Random(7)\n",
                "src/repro/baselines/datree.py",
                "REF009",
                id="row11-ad-hoc-generator",
            ),
        ],
    )
    def test_flags(self, source, path, rule_id):
        assert ids(lint(source, path=path)) == [rule_id]

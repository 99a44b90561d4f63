"""Removed surface stays removed: names a simplification deleted do not
come back.

One row per removed surface: a regular expression, whether it must
match whole words only (grep's ``-w``), and the roots searched.  A
directory is searched recursively, every file but ``__pycache__``; a
file is searched as itself; ``benchmarks/*.py`` is that directory's top
level only (``benchmarks/e2e`` belongs to the benchmark, and its
``workloads.py`` still names ``EngineConfig``).  This file spells every
name, so it is skipped.
"""

import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
THIS_FILE = pathlib.Path(__file__).resolve()

ROWS = [
    pytest.param(
        r"EngineConfig|PacketPool|CalendarQueue|InternedKautzSpace"
        r"|use_spatial_index|spatial_index=",
        False,
        ("src", "benchmarks/*.py", "tests"),
        id="one-engine",
    ),
    pytest.param(
        r"parallel_campaign|parallel_resilience_campaign|WorkerFaultInjector"
        r"|FIGURE_FUNCTIONS|backoff_base_s|jitter_frac|supervisor_seed"
        r"|fig[0-9]+_[a-z_]+_vs_[a-z]+\(",
        False,
        ("src", "benchmarks/*.py", "tests", "examples"),
        id="one-way-to-run-a-grid",
    ),
    pytest.param(
        r"KNOWN_STREAM_NAMES|module_flow|_FlowRule|prune-baseline"
        r"|referlint-baseline"
        r"|devtools\.(dataflow|scopes|callgraph|flowpack|baseline)",
        False,
        ("src", "tests", "benchmarks/*.py", "CONTRIBUTING.md", "docs"),
        id="one-kind-of-rule",
    ),
    pytest.param(
        r"\.asleep\b",
        False,
        ("src", "tests", "docs"),
        id="sleep-is-bookkeeping",
    ),
    pytest.param(
        r"MacConfig|ReferConfig|adaptive_timeout|fixed_timeout|priority_mac"
        r"|heal_can|flight_capacity|probe_window|sources_per_window"
        r"|EnergyModel|energy_model",
        True,
        ("src", "tests", "benchmarks/*.py", "examples", "docs"),
        id="held-fixed-stays-constant",
    ),
    pytest.param(
        r"usable_only",
        False,
        ("src",),
        id="one-neighbour-geometry",
    ),
    pytest.param(
        r"wall_hotspots|wall_clock=|RetryPolicy|HashRing|\.within_range\("
        r"|validate_payload|PAYLOAD_VERSION|record_failed|JournalEntry"
        r"|_RECOVERY_INT_FIELDS|CountDraw|EligibleDraw|initial_delays"
        r"|all_delay|count=lambda",
        False,
        ("src", "tests", "benchmarks/*.py", "examples", "docs"),
        id="no-removed-surface",
    ),
    pytest.param(
        r"referlint: disable|REGISTRY|all_rules|list-rules|PARSE_ERROR"
        r"|SEVERITIES",
        True,
        (
            "src", "tests", "benchmarks/*.py", "examples", "docs",
            "CONTRIBUTING.md", ".claude",
        ),
        id="one-static-guard",
    ),
    pytest.param(
        r"_unicast|_qos_guard|_hop_then_route|_HopState"
        r"|note_retransmit_recovered|on_recovered|retransmit_recovered",
        True,
        ("src", "tests", "benchmarks/*.py", "examples", "docs"),
        id="one-hop-primitive",
    ),
    pytest.param(
        r"CampaignSupervisor|FailedJob|SupervisorStats|failed_jobs"
        r"|MAX_ATTEMPTS|DEADLINE_S|degraded_serial|Saboteur|worker_error"
        r"|quarantin\w*",
        True,
        (
            "src", "tests", "benchmarks/*.py", "examples", "docs",
            "EXPERIMENTS.md", ".claude",
        ),
        id="one-pool",
    ),
    pytest.param(
        r"discover_path|discover_nearest|_tree_path_to_actuator|_path_alive"
        r"|_install_parents|_hello_round|datree_congestion_retries"
        r"|ddear_congestion_retries",
        True,
        (
            "src", "tests", "benchmarks/*.py", "examples", "docs",
            "DESIGN.md", ".claude",
        ),
        id="one-repair-substrate",
    ),
    pytest.param(
        r"ring_capacity|diagnose|--ring|on_detected|on_repaired"
        r"|entry_relays|generic_fill_assignments|true_detections"
        r"|recovery_detection_latency_seconds"
        r"|recovery_repair_latency_seconds",
        True,
        (
            "src", "tests", "benchmarks/*.py", "examples", "docs",
            "DESIGN.md", "EXPERIMENTS.md", ".claude",
        ),
        id="each-fact-recorded-once",
    ),
    pytest.param(
        r"deliver_to_handler|set_receive_handler|handler_of|ReceiveHandler"
        r"|CACHE_SIZE|_airtime_cache|_holding_cache|charge_control_\w*"
        r"|simple_paths|count_simple_paths|kautz\.paths",
        True,
        (
            "src", "tests", "benchmarks/*.py", "examples", "docs",
            "DESIGN.md", ".claude",
        ),
        id="one-delivery-notification",
    ),
    pytest.param(
        r"EventQueue|peek_time|note_cancelled|SimProfiler\.dispatch"
        r"|profiler\.dispatch",
        True,
        (
            "src", "tests", "benchmarks/*.py", "examples", "docs",
            "DESIGN.md", "EXPERIMENTS.md", ".claude",
        ),
        id="one-frame-per-event",
    ),
    pytest.param(
        r"qos_terminal|meta\[\"drop_reason\"\]|_TRANSIENT_META|_VERDICT"
        r"|_free_frames|_acquire_frame|_release_frame|Simulator\.stop"
        r"|sim\.stop\(\)|_stopped|_trace_events|routing_drops",
        True,
        (
            "src", "tests", "benchmarks/*.py", "examples", "docs",
            "DESIGN.md", "CONTRIBUTING.md", ".claude",
        ),
        id="outcomes-are-arguments",
    ),
    pytest.param(
        r"ResilienceProbe\(\)|probe\.on_(generated|delivered)|probe="
        r"|_class_slot|_class_counts|class_stats\(\)"
        r"|metrics\.(generated|delivered_qos|delivered_total|dropped"
        r"|qos_bytes|mean_delay|delivery_ratio|throughput_bps)",
        False,
        ("src", "tests", "benchmarks/*.py", "examples", "docs", "DESIGN.md"),
        id="one-packet-ledger",
    ),
    pytest.param(
        r"_assign_common_neighbor|_generic_assign|\.midpoint\("
        r"|plan\.cells\[0\]\.centroid",
        False,
        ("src", "tests", "benchmarks/*.py", "examples", "docs", "DESIGN.md"),
        id="one-placement-rule",
    ),
    pytest.param(
        r"\binjector\b|\.drop_reasons\(|^\s*registry=network\.registry"
        r"|MetricsCollector\([^)]*registry",
        False,
        (
            "src/repro/experiments", "src/repro/telemetry", "tests/experiments",
            "tests/telemetry", "benchmarks/*.py", "examples", "docs",
            "DESIGN.md",
        ),
        id="one-fault-path-one-packet-record",
    ),
    pytest.param(
        r"kautz_edge_count|\.has_edge\(|\.adjacency\(\)|\.journey\("
        r"|\.master_seed\b|\.translated\(|grid\.remove\(|\.removes\b"
        r"|\._set\(|\.sensors\(SensorState"
        r"|\b(net|network|medium)\.nodes\(\)",
        False,
        ("src", "tests", "benchmarks/*.py", "examples", "docs"),
        id="what-only-tests-ran",
    ),
]


def _files(root):
    if "*" in root:
        return sorted(REPO_ROOT.glob(root))
    path = REPO_ROOT / root
    if path.is_dir():
        return sorted(
            p for p in path.rglob("*")
            if p.is_file() and "__pycache__" not in p.parts
        )
    return [path] if path.is_file() else []


@pytest.mark.parametrize("pattern,whole_words,roots", ROWS)
def test_removed_names_stay_removed(pattern, whole_words, roots):
    if whole_words:
        pattern = rf"(?<!\w)(?:{pattern})(?!\w)"
    regex = re.compile(pattern)
    hits = [
        f"{path.relative_to(REPO_ROOT)}:{number}: {line.strip()}"
        for root in roots
        for path in _files(root)
        if path != THIS_FILE
        for number, line in enumerate(
            path.read_text(encoding="utf-8", errors="replace").splitlines(),
            start=1,
        )
        if regex.search(line)
    ]
    assert not hits, "removed surface is back:\n" + "\n".join(hits)

"""Resilience campaign: recovery time and degradation under chaos.

Sweeps fault class x intensity for all four systems with the chaos
subsystem (``repro.chaos``) and reports, per cell, the delivery ratio
under fault, the windowed delivery trough, the mean time-to-recovery,
and the communication-phase flooding energy.  The headline claim under
test: REFER recovers through **local** repair — zero route-discovery
floods — while the tree/cluster baselines pay a flood per repair.

A second REFER-only sweep runs with the self-healing stack
(:mod:`repro.recovery`): failures detected from heartbeat evidence
instead of omnisciently, per-hop ARQ, CAN zone takeover.  The bench
asserts message-grounded recovery stays within 2x the omniscient
baseline's time-to-recovery (modulo the probe-window floor) while
reporting real detection latency per fault class.

Effort knobs are the shared bench environment variables
(``REFER_BENCH_SEEDS``, ``REFER_BENCH_SIM_TIME``, ``REFER_BENCH_RATE``,
``REFER_BENCH_WORKERS``); the fault classes are the campaign's default
rotation/permanent/blackout/battery.
"""

from repro.experiments.resilience import (
    DEFAULT_FAULT_CLASSES,
    format_resilience,
    resilience_campaign,
)
from repro.recovery import RecoveryConfig

from _common import (
    RESULTS_DIR,
    bench_base_config,
    bench_seeds,
    bench_workers,
)

FLOODING_SYSTEMS = ("DaTree", "D-DEAR", "Kautz-overlay")


def test_resilience_recovery(benchmark):
    base = bench_base_config()
    grid = dict(
        intensities=(2, 6), seeds=bench_seeds(), workers=bench_workers()
    )

    def sweep():
        omniscient = resilience_campaign(base, **grid)
        healed = resilience_campaign(
            base, systems=("REFER",), recovery=RecoveryConfig(), **grid
        )
        return omniscient, healed

    result, healed = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = (
        format_resilience(result)
        + "\n\nREFER + self-healing stack (message-grounded detection)\n"
        + format_resilience(healed)
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "resilience_recovery.txt").write_text(
        table + "\n", encoding="utf-8"
    )
    print("\n" + table)

    assert not result.failed_jobs and not healed.failed_jobs
    refer = [c for c in result.cells if c.system == "REFER"]
    assert refer, "campaign must cover REFER"
    assert result.fault_classes() == list(DEFAULT_FAULT_CLASSES)

    # REFER repairs locally: no route-discovery floods, ever — flood
    # energy is exactly 0.0 by construction, not approximately.
    # referlint: disable-next-line=REF004
    assert all(c.flood_comm_energy_j == 0.0 for c in refer)
    # Every flooding baseline pays comm-phase flood energy under at
    # least one fault class; trees pay under all of them.
    for system in FLOODING_SYSTEMS:
        cells = [c for c in result.cells if c.system == system]
        assert any(c.flood_comm_energy_j > 0.0 for c in cells), system
    # REFER keeps delivering through every fault class, and recovers
    # from the faults it can observe.
    assert all(c.delivery_ratio > 0.5 for c in refer)
    assert all(c.recovered_fraction > 0.5 for c in refer)
    # Recovery happens in bounded time (well inside the fault period).
    assert all(c.recovery_time_s <= 10.0 for c in refer if c.recovery_time_s)

    # Message-grounded self-healing: paying for real detection (probe
    # rounds, suspicion threshold) must cost at most 2x the omniscient
    # baseline's time-to-recovery.  The floor term covers cells whose
    # omniscient recovery is quantised to zero probe windows.
    for cell in healed.cells:
        omni = result.cell(cell.system, cell.fault_class, cell.intensity)
        floor = base.probe_window
        assert cell.recovery_time_s <= 2.0 * max(
            omni.recovery_time_s, floor
        ), (
            f"{cell.fault_class}/{cell.intensity}: healed "
            f"{cell.recovery_time_s:.2f}s vs omniscient "
            f"{omni.recovery_time_s:.2f}s"
        )
        assert cell.delivery_ratio > 0.5
        assert cell.false_positive_rate <= 0.5
    # At least one fault class exhibits genuine (non-zero) detection
    # latency — detection is not free when it is message-grounded.
    assert any(c.detection_latency_s > 0.0 for c in healed.cells)

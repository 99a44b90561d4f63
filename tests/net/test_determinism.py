"""Net-layer determinism goldens, extending the chaos-suite patterns.

Two contracts:

* one seed, one schedule: a fixed small scenario run twice yields
  byte-identical ``RunResult`` metrics (no hidden iteration-order or
  wall-clock dependence anywhere in the medium/index path);
* the spatial index only prunes: every neighbour tuple the medium
  computes during a whole scenario equals the brute-force scan of the
  medium's own snapshot — the index may only change how neighbours
  are *found*, never which neighbours (or in which order) protocols
  see them — and checking that perturbs no metric;
* ``contention_at`` walks only the radios filed busy: every answer a
  whole scenario gets equals the count over *every* node at its exact
  position at that instant; the check reads positions the walk never
  asked for, so unchanged metrics also show that reading them is
  unobservable;
* the recovery stack (:mod:`repro.recovery`) is deterministic and
  strictly opt-in: same seed + ARQ on is byte-identical run-to-run,
  and a fully disabled ``RecoveryConfig`` reproduces the
  ``recovery=None`` flow byte-for-byte;
* telemetry (:mod:`repro.telemetry`) is pure observation: enabling
  the flight recorder and profiler changes no metric by even one ULP,
  and a telemetry-enabled run is itself byte-identical run-to-run.
"""

import pytest

from repro.experiments.config import FaultConfig, ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.net.medium import WirelessMedium
from repro.recovery import RecoveryConfig
from repro.telemetry import TelemetryConfig
from tests.net.oracle import brute_neighbors
from tests.net.test_contention import brute_contention

SMALL = ScenarioConfig(
    seed=11,
    sensor_count=40,
    area_side=220.0,
    sim_time=12.0,
    warmup=2.0,
    rate_pps=5.0,
)

#: Every numeric field a run produces; compared with == (exact floats).
METRIC_FIELDS = (
    "throughput_bps",
    "mean_delay_s",
    "comm_energy_j",
    "construction_energy_j",
    "generated",
    "delivered_qos",
    "delivered_total",
    "dropped",
    "flood_comm_energy_j",
)


def metrics_of(result):
    return {name: getattr(result, name) for name in METRIC_FIELDS}


class TestNetDeterminism:
    @pytest.mark.parametrize("system", ["REFER", "DaTree"])
    def test_same_seed_byte_identical_metrics(self, system):
        a = run_scenario(system, SMALL)
        b = run_scenario(system, SMALL)
        assert repr(metrics_of(a)) == repr(metrics_of(b))

    def test_different_seed_different_run(self):
        a = run_scenario("REFER", SMALL)
        b = run_scenario("REFER", SMALL.with_(seed=12))
        assert metrics_of(a) != metrics_of(b)


def run_checked_against_brute_scan(system, config, monkeypatch):
    """``run_scenario`` with every computed neighbour tuple and every
    contention count compared to the brute-force oracle; returns the
    result, the tuples the run computed and the counts it was given."""
    compute = WirelessMedium._compute_neighbors
    contention = WirelessMedium.contention_at
    tuples = []
    counts = []

    def compute_and_check(medium, node_id, require_usable):
        found = compute(medium, node_id, require_usable)
        assert found == brute_neighbors(medium, node_id, require_usable)
        tuples.append(found)
        return found

    def contention_and_check(medium, node_id, now):
        count = contention(medium, node_id, now)
        assert count == brute_contention(medium, node_id, now)
        counts.append(count)
        return count

    with monkeypatch.context() as patch:
        patch.setattr(WirelessMedium, "_compute_neighbors", compute_and_check)
        patch.setattr(WirelessMedium, "contention_at", contention_and_check)
        return run_scenario(system, config), tuples, counts


#: The oracle runs at a load that keeps radios busy (thousands of
#: counts, hundreds non-zero, where ``SMALL`` has two).
BUSY = SMALL.with_(rate_pps=30.0)


def assert_run_checked_and_unperturbed(system, config, monkeypatch):
    indexed, tuples, counts = run_checked_against_brute_scan(
        system, config, monkeypatch
    )
    assert len(tuples) > 40 and any(tuples)
    assert len(counts) > 1000 and sum(1 for c in counts if c) > 100
    plain = run_scenario(system, config)
    assert repr(metrics_of(indexed)) == repr(metrics_of(plain))


class TestSpatialIndexTransparency:
    """The grid and the busy-radio walk must be invisible: brute-force
    neighbours and brute-force counts, every query."""

    #: The baselines run with their faults: nodes fail and recover
    #: mid-run, and Kautz-overlay's repair floods occupy every radio
    #: at once (the busy walk at its longest).
    FAULTS = FaultConfig(count=4, period=4.0)
    CONFIGS = {
        "REFER": BUSY,
        "DaTree": BUSY.with_(faults=FAULTS),
        "Kautz-overlay": BUSY.with_(faults=FAULTS),
    }

    @pytest.mark.parametrize("system", ["REFER", "DaTree", "Kautz-overlay"])
    def test_grid_and_brute_media_byte_identical(self, system, monkeypatch):
        assert_run_checked_and_unperturbed(
            system, self.CONFIGS[system], monkeypatch
        )

    def test_grid_on_mobile_scenario_byte_identical(self, monkeypatch):
        assert_run_checked_and_unperturbed(
            "REFER", BUSY.with_(sensor_max_speed=8.0), monkeypatch
        )


class TestRecoveryDeterminism:
    """The self-healing stack must be reproducible and opt-in."""

    def test_arq_on_same_seed_byte_identical(self):
        config = SMALL.with_(recovery=RecoveryConfig())
        a = run_scenario("REFER", config)
        b = run_scenario("REFER", config)
        assert repr(metrics_of(a)) == repr(metrics_of(b))
        assert a.recovery == b.recovery

    def test_disabled_recovery_matches_pre_recovery_flow(self):
        """ARQ/detector/healer all off == the legacy code path exactly.

        A ``RecoveryConfig`` with every layer disabled must not perturb
        a run in any way — no RNG streams consumed, no extra traffic,
        no altered send paths.
        """
        disabled = RecoveryConfig(detector=False, arq=False, heal_can=False)
        legacy = run_scenario("REFER", SMALL)
        gated = run_scenario("REFER", SMALL.with_(recovery=disabled))
        assert repr(metrics_of(legacy)) == repr(metrics_of(gated))
        assert gated.recovery is None

    def test_arq_changes_the_flow_only_when_enabled(self):
        """Sanity: with ARQ on the hop schedule genuinely differs."""
        legacy = run_scenario("REFER", SMALL)
        armed = run_scenario("REFER", SMALL.with_(recovery=RecoveryConfig()))
        assert armed.recovery is not None
        assert metrics_of(legacy) != metrics_of(armed)


class TestTelemetryTransparency:
    """Telemetry observes the run; it must never *be* the run."""

    @pytest.mark.parametrize("system", ["REFER", "DaTree"])
    def test_enabled_telemetry_is_byte_identical(self, system):
        plain = run_scenario(system, SMALL)
        observed = run_scenario(
            system, SMALL.with_(telemetry=TelemetryConfig())
        )
        assert repr(metrics_of(plain)) == repr(metrics_of(observed))
        assert plain.telemetry is None
        assert observed.telemetry is not None

    def test_telemetry_run_reproducible(self):
        config = SMALL.with_(telemetry=TelemetryConfig())
        a = run_scenario("REFER", config)
        b = run_scenario("REFER", config)
        assert repr(metrics_of(a)) == repr(metrics_of(b))
        assert a.telemetry.registry.as_dict() == b.telemetry.registry.as_dict()
        assert (
            a.telemetry.flight.events_recorded
            == b.telemetry.flight.events_recorded
        )

    def test_telemetry_transparent_under_chaos_and_recovery(self):
        from repro.chaos.spec import FaultSpec

        config = SMALL.with_(
            fault_spec=(FaultSpec(kind="rotation", start=4.0),),
            recovery=RecoveryConfig(),
        )
        plain = run_scenario("REFER", config)
        observed = run_scenario(
            "REFER", config.with_(telemetry=TelemetryConfig())
        )
        assert repr(metrics_of(plain)) == repr(metrics_of(observed))
        assert plain.recovery == observed.recovery
        # The attached verdict timeline is exactly the detector's.
        assert len(observed.telemetry.verdicts) == (
            plain.recovery.condemnations + plain.recovery.absolutions
        )

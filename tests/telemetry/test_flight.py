"""Flight recorder: ring bounds, span causality, drop taxonomy.

The unit tests drive the recorder by hand; the integration tests run a
real telemetry-enabled scenario and check that every retained journey
is causally well-formed (tx before rx, spans inside the
generate→deliver envelope, tx_nodes == the delivered hop list).
"""

import pytest

from repro.errors import TelemetryError
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.telemetry import TelemetryConfig
from repro.chaos.spec import FaultSpec
from repro.telemetry.flight import (
    DROP_REASONS,
    FLIGHT_CAPACITY,
    FlightEvent,
    FlightRecorder,
)


def by_uid(rec):
    """The recorder's retained journeys, keyed by packet uid, oldest
    first."""
    return {journey.uid: journey for journey in rec.journeys()}


class TestRecorderUnit:
    def test_ring_evicts_oldest_journey(self):
        rec = FlightRecorder()
        uids = range(1, FLIGHT_CAPACITY + 2)
        for uid in uids:
            rec.generated(uid, 0.5, source=uid)
        assert list(by_uid(rec)) == list(uids[1:])
        assert rec.journeys_started == FLIGHT_CAPACITY + 1
        assert rec.journeys_evicted == 1
        # lifetime, survives eviction
        assert rec.events_recorded == FLIGHT_CAPACITY + 1
        assert 1 not in by_uid(rec)

    def test_queued_hop_records_enqueue_then_tx(self):
        rec = FlightRecorder()
        rec.hop_tx(7, 1.0, src=3, dst=4, queued=True)
        kinds = [e.kind for e in by_uid(rec)[7].events]
        assert kinds == ["enqueue", "tx"]
        assert rec.events_recorded == 2

    def test_outcomes(self):
        rec = FlightRecorder()
        rec.generated(1, 0.0, source=9)
        rec.generated(2, 0.0, source=9)
        rec.generated(3, 0.0, source=9)
        rec.generated(4, 0.0, source=9)
        rec.delivered(1, 1.0, destination=5, hops=(9, 5))
        rec.dropped(2, 1.0, reason="hop-limit")
        rec.retransmitted(4, 5, 1.5)
        outcomes = {j.uid: j.outcome for j in rec.journeys()}
        assert outcomes == {
            1: "delivered", 2: "dropped", 3: "in-flight",
            4: "retransmitted", 5: "in-flight",
        }
        journeys = by_uid(rec)
        assert journeys[4].events[-1] == FlightEvent(
            1.5, "retransmit", None, None, "as=5"
        )
        assert journeys[5].events == (
            FlightEvent(1.5, "copy", None, None, "of=4"),
        )

    def test_drop_reasons_bucketed_and_unnamed_refused(self):
        rec = FlightRecorder()
        rec.dropped(1, 1.0, reason="hop-limit")
        rec.dropped(2, 1.0, reason="hop-limit")
        with pytest.raises(TelemetryError, match="packet 3 "):
            rec.dropped(3, 1.0, reason="")
        journeys = by_uid(rec)
        assert list(journeys) == [1, 2]
        assert [journeys[uid].events[-1].info for uid in (1, 2)] == [
            "hop-limit", "hop-limit",
        ]
        assert "unknown" not in DROP_REASONS

    def test_hop_spans_pair_tx_with_rx(self):
        rec = FlightRecorder()
        rec.generated(1, 0.0, source=3)
        rec.hop_tx(1, 0.1, src=3, dst=4, queued=False)
        rec.hop_rx(1, 0.2, src=3, dst=4)
        rec.hop_tx(1, 0.3, src=4, dst=5, queued=False)
        # second hop never completes: no rx, so no span
        spans = by_uid(rec)[1].hop_spans
        assert spans == ((0.1, 0.2, 3, 4),)


SCENARIO = ScenarioConfig(
    seed=11,
    sensor_count=40,
    area_side=220.0,
    sim_time=12.0,
    warmup=2.0,
    rate_pps=5.0,
    telemetry=TelemetryConfig(),
)


@pytest.fixture(scope="module")
def run():
    return run_scenario("REFER", SCENARIO)


@pytest.fixture(scope="module")
def flight(run):
    recorder = run.telemetry.flight
    assert recorder.journeys_started > 0
    return recorder


class TestSpanCausality:
    """Recorded journeys from a real run must be causally consistent."""

    def test_every_journey_starts_with_generate(self, flight):
        for journey in flight.journeys():
            assert journey.events[0].kind == "generate"

    def test_times_are_monotone_within_a_journey(self, flight):
        for journey in flight.journeys():
            times = [e.time for e in journey.events]
            assert times == sorted(times)

    def test_delivered_tx_nodes_match_recorded_hops(self, flight):
        delivered = [j for j in flight.journeys() if j.outcome == "delivered"]
        assert delivered, "scenario produced no delivered journeys"
        for journey in delivered:
            final = journey.events[-1]
            assert final.kind == "deliver"
            hops = tuple(
                int(h) for h in final.info.split(",") if h
            )
            assert journey.tx_nodes == hops

    def test_hop_spans_nest_in_the_journey_envelope(self, flight):
        for journey in flight.journeys():
            start = journey.events[0].time
            end = journey.events[-1].time
            for t_tx, t_rx, src, dst in journey.hop_spans:
                assert start <= t_tx <= t_rx <= end
                assert src != dst

    def test_recorded_drop_reasons_are_in_the_taxonomy(self, run):
        dropped = run.telemetry.registry.get("packets_dropped")
        for (reason,), _ in dropped.items():
            assert reason in DROP_REASONS

    def test_ring_respects_capacity(self, flight):
        assert len(flight.journeys()) <= FLIGHT_CAPACITY


def test_a_source_retransmission_links_the_two_journeys():
    """D-DEAR's source resends a packet lost to a crashed relay as a
    copy with a uid of its own: the original's journey ends naming the
    copy, the copy's starts naming the original, and following those
    links every generated packet ends delivered or dropped."""
    result = run_scenario("D-DEAR", ScenarioConfig(
        seed=9,
        sensor_count=48,
        area_side=230.0,
        sim_time=14.0,
        warmup=2.0,
        rate_pps=5.0,
        fault_spec=(FaultSpec(kind="rotation", count=4, period=4.0, start=3.0),),
        telemetry=TelemetryConfig(),
    ))
    flight = result.telemetry.flight
    assert flight.journeys_evicted == 0
    journeys = {journey.uid: journey for journey in flight.journeys()}
    copies = 0
    for journey in journeys.values():
        first = journey.events[0]
        assert first.kind in ("generate", "copy")
        if first.kind == "copy":
            copies += 1
            original = journeys[int(first.info[len("of="):])]
            assert original.events[-1] == first._replace(
                kind="retransmit", info=f"as={journey.uid}"
            )
    assert copies > 0
    for journey in journeys.values():
        if journey.events[0].kind != "generate":
            continue
        while journey.outcome == "retransmitted":
            journey = journeys[int(journey.events[-1].info[len("as="):])]
        assert journey.outcome in ("delivered", "dropped"), journey

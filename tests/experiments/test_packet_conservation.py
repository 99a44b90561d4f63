"""Packet conservation over the run's packet ledger.

Every generated packet ends exactly one way: delivered, dropped, or
still in flight when the run stops.  The ledger has one row per event,
and a baseline's source retransmission sends a copy with a uid of its
own, so the check counts *chains*: the flight recorder links a
packet's journey to its copy's (``retransmit`` / ``copy``), and a
chain ends where its last journey does.  Per class and over the
measured window (packets created after warm-up) alike::

    generated = delivered + dropped + in flight

and the ledger's delivered and dropped rows are the chains that ended
that way.  Only retained journeys can be read, so no journey may have
been evicted.
"""

import collections

import pytest

from repro.experiments import runner
from repro.experiments.metrics import (
    _CLASS_ORDER,
    DELIVERED,
    GENERATED,
    MetricsCollector,
)
from repro.experiments.runner import SYSTEMS, run_scenario
from repro.qos.config import BurstyConfig, QosConfig

from tests.experiments.test_pinned_digests import FAULTED, PLAIN

#: ``PLAIN`` with the QoS queues and bursty marked traffic, so that the
#: per-class check has classes to check.
CLASSED = PLAIN.with_(
    sim_time=8.0,
    qos=QosConfig(),
    bursty=BurstyConfig(sources=6, peak_rate_pps=8.0, load_multiplier=3.0),
)

OUTCOMES = {GENERATED: "generated", DELIVERED: "delivered"}


class _Kept(MetricsCollector):
    """The run's collector, kept for the test, with each generated
    packet's class by uid."""

    kept = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.classes = {}
        _Kept.kept.append(self)

    def on_generated(self, packet):
        self.classes[packet.uid] = packet.traffic_class
        super().on_generated(packet)


def chain_ends(flight):
    """Generated packet uid -> how its chain of copies ended."""
    journeys = {j.uid: j for j in flight.journeys()}
    ends = {}
    for uid, journey in journeys.items():
        if journey.events[0].kind != "generate":
            continue   # a copy's journey, or a protocol frame's
        while journey.outcome == "retransmitted":
            copy = journeys[int(journey.events[-1].info.split("=")[1])]
            assert copy.events[0].info == f"of={journey.uid}"
            journey = copy
        ends[uid] = journey.outcome
    return ends


def run_kept(monkeypatch, system, config):
    _Kept.kept = []
    monkeypatch.setattr(runner, "MetricsCollector", _Kept)
    result = run_scenario(system, config)
    (metrics,) = _Kept.kept
    return result, metrics


@pytest.mark.parametrize("system", sorted(SYSTEMS))
@pytest.mark.parametrize(
    "config", [PLAIN, FAULTED, CLASSED], ids=["plain", "faulted", "classed"]
)
def test_every_generated_packet_is_delivered_dropped_or_in_flight(
    monkeypatch, system, config
):
    result, metrics = run_kept(monkeypatch, system, config)
    flight = result.telemetry.flight
    assert flight.journeys_evicted == 0
    ends = chain_ends(flight)
    assert sorted(ends) == sorted(metrics.classes)

    ledger = metrics.ledger
    rows = collections.Counter()     # (class, measured, outcome) -> rows
    for code, created, cls in zip(
        ledger.code, ledger.times[::3], ledger.traffic_class
    ):
        outcome = OUTCOMES.get(code, "dropped")
        rows[_CLASS_ORDER[cls] if cls >= 0 else None,
             created >= config.warmup, outcome] += 1
    chains = collections.Counter()   # (class, measured, end) -> chains
    journeys = {journey.uid: journey for journey in flight.journeys()}
    for uid, end in ends.items():
        created = journeys[uid].events[0].time
        chains[metrics.classes[uid], created >= config.warmup, end] += 1

    for cls in {key[0] for key in rows}:
        for measured in (True, False):
            for outcome in ("delivered", "dropped"):
                assert rows[cls, measured, outcome] == chains[
                    cls, measured, outcome
                ], (cls, measured, outcome)
            assert rows[cls, measured, "generated"] == (
                rows[cls, measured, "delivered"]
                + rows[cls, measured, "dropped"]
                + chains[cls, measured, "in-flight"]
            ), (cls, measured)

    packets = metrics.fold()
    assert packets.generated == result.generated > 0
    in_flight = sum(
        n for (_, measured, end), n in chains.items()
        if measured and end == "in-flight"
    )
    assert packets.generated == (
        packets.delivered_total + packets.dropped + in_flight
    )
    for stat in packets.class_stats:
        assert stat.generated == (
            stat.delivered + stat.dropped
            + chains[stat.traffic_class, True, "in-flight"]
        )
    assert bool(packets.class_stats) == (config is CLASSED)

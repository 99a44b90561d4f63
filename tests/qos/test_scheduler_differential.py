"""Differential test: ``MacQosScheduler`` == the self-rescheduling one.

``MacQosScheduler`` files a node's wake-up only when a frame waits for
it and serves a frame at an idle node directly;
``ReferenceQosScheduler`` (``tests/qos/oracle.py``) scheduled a wake-up
after every service.  Random scripts of frames (node, next hop, lane,
deadline, age, a burst from one node or from several, with or without
``refusal`` first, sent from an event or between two ``run_until``
calls, re-sent from an expiry or relayed back from a completion) go
through both on a ``RecordingMac`` whose airtimes follow the service
order.  Times are
multiples of 1/8 s, so wake-ups, submits and completions meet at the
same instants.  Both must serve the same frames at the same times,
give every frame the same verdict, and end with the same ``QosStats``,
congestion marks and seq counter.
"""

from hypothesis import given, settings, strategies as st

from repro.net.packet import Packet, PacketKind
from repro.qos import BackpressureState, MacQosScheduler, QosStats
from repro.qos.classes import PRIORITY_ORDER
from repro.sim.core import Simulator
from tests.qos.oracle import ReferenceQosScheduler
from tests.qos.test_scheduler import RecordingMac

TICK = 0.125
STAT_FIELDS = [name for name in vars(QosStats) if not name.startswith("_")]

OPS = st.tuples(
    st.integers(0, 12),                       # tick of the send
    st.booleans(),                            # sent between run_until calls
    st.integers(0, 3),                        # node
    st.integers(0, 3),                        # next hop
    st.integers(0, len(PRIORITY_ORDER) - 1),  # lane
    st.sampled_from([None, 0.0, 0.125, 0.25, 0.5, 1.0]),  # deadline
    st.sampled_from([0.0, 0.125, 0.5]),       # age at the send
    st.booleans(),                            # submit without refusal
    st.integers(1, 9),                        # frames in the burst
    st.booleans(),                            # the burst from one node each
    st.booleans(),                            # re-send when it expires
    st.booleans(),                            # relay back when it arrives
)
AIRTIMES = st.lists(
    st.sampled_from([0.125, 0.25, 0.375]), min_size=1, max_size=4
)


def run_script(scheduler_type, airtimes, ops):
    sim = Simulator()
    stats = QosStats()
    state = BackpressureState(stats)
    mac = RecordingMac(sim, airtimes=tuple(airtimes))
    scheduler = scheduler_type(sim, mac, state, stats)
    verdicts = []

    def on_result(name, node, hop, resend, relay):
        def result(cause, at):
            verdicts.append((sim.now, name, cause, at))
            if cause == "deadline_expired" and resend:
                # Re-enters submit() for the node being served.
                again = name + ("again",)
                scheduler.submit(
                    node, hop, packet(again, 0, None, 0.0),
                    on_result(again, node, hop, False, False),
                )
            elif cause is None and relay:
                # From a completion event, whose seq was issued after the
                # kept wake-ups of nodes served before this frame: both
                # ends send again, one event serving two nodes.
                for src, dst in ((hop, node), (node, hop)):
                    again = name + ("relay", src)
                    frame = packet(again, 2, None, 0.0)
                    if scheduler.refusal(src, dst, frame, sim.now) is None:
                        scheduler.submit(
                            src, dst, frame,
                            on_result(again, src, dst, False, False),
                        )
        return result

    def packet(name, lane, deadline, age):
        return Packet(
            kind=PacketKind.DATA, size_bytes=100, source=1, destination=2,
            created_at=sim.now - age, deadline=deadline,
            meta={"name": name}, traffic_class=PRIORITY_ORDER[lane].value,
        )

    def send(index, op):
        _, _, first, hop, lane, deadline, age, direct, burst, spread = op[:10]
        for k in range(burst):
            name = (index, k)
            node = (first + k) % 4 if spread else first
            frame = packet(name, lane, deadline, age)
            if not direct:
                refusal = scheduler.refusal(node, hop, frame, sim.now)
                if refusal is not None:
                    verdicts.append((sim.now, name, refusal, None))
                    continue
            scheduler.submit(
                node, hop, frame, on_result(name, node, hop, *op[10:])
            )

    for index, op in sorted(enumerate(ops), key=lambda item: item[1][0]):
        time = op[0] * TICK
        if op[1]:
            sim.run_until(time)
            send(index, op)
        else:
            sim.schedule_at(time, lambda index=index, op=op: send(index, op))
    sim.run_until(30.0)
    served = [packet.meta["name"] for packet in mac.served]
    return (
        served,
        verdicts,
        [getattr(stats, name) for name in STAT_FIELDS],
        sorted(state._congested),
        sim._next_seq,
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(airtimes=AIRTIMES, ops=st.lists(OPS, max_size=30))
def test_idle_path_and_kept_wake_ups_match_the_reference(airtimes, ops):
    assert run_script(MacQosScheduler, airtimes, ops) == run_script(
        ReferenceQosScheduler, airtimes, ops
    )


def test_scripts_congest_expire_and_meet_wake_ups():
    # What makes the property bite: one script of the kind it draws
    # raises and clears a congestion mark, expires a queued frame whose
    # callback re-submits, sends from an event at the instant a kept
    # wake-up is due, and sends between two run_until calls.
    ops = [
        (0, False, 0, 1, 2, None, 0.0, False, 8, False, False, False),
        (0, False, 0, 1, 0, 0.0, 0.0, False, 1, False, True, False),
        (1, False, 1, 0, 2, None, 0.0, False, 1, False, False, False),
        (2, False, 1, 0, 1, None, 0.0, False, 1, False, False, False),
        (3, True, 1, 0, 1, None, 0.0, False, 1, False, False, False),
    ]
    observed = run_script(MacQosScheduler, [0.125], ops)
    stats = dict(zip(STAT_FIELDS, observed[2]))
    assert stats["congestion_onsets"] == stats["congestion_clears"] == 1
    assert stats["deadline_drops"] == 1
    assert (1, 0, "again") in [verdict[1] for verdict in observed[1]]
    assert observed == run_script(ReferenceQosScheduler, [0.125], ops)

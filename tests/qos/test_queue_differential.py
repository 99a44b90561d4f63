"""Differential test: tuple-of-lanes queue == dict-of-deques queue.

Random scripts of ``offer`` / ``pop_live(now)`` / ``full`` over mixed
lanes, ``None`` and finite expiries and lanes shallow enough to fill
go through ``PriorityFrameQueue`` and ``ReferenceFrameQueue`` (the
formulation it replaced): the same frame must come out, with the same
``expired`` list in the same order, and ``depth`` and every lane's
length must agree after each step.
"""

from hypothesis import given, settings, strategies as st

from repro.net.packet import Packet, PacketKind
from repro.qos import PRIORITY_ORDER, PriorityFrameQueue, QueuedFrame
from tests.qos.oracle import ReferenceFrameQueue

LANES = st.integers(0, len(PRIORITY_ORDER) - 1)
TIMES = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
OPS = st.one_of(
    st.tuples(st.just("offer"), LANES, st.one_of(st.none(), TIMES)),
    st.tuples(st.just("pop"), TIMES),
    st.tuples(st.just("full"), LANES),
)
DEPTHS = st.fixed_dictionaries(
    {cls: st.integers(min_value=1, max_value=4) for cls in PRIORITY_ORDER}
)


def _frame(step, lane, expiry):
    packet = Packet(
        kind=PacketKind.DATA, size_bytes=100, source=1, destination=2,
        created_at=0.0, meta={"step": step},
        traffic_class=PRIORITY_ORDER[lane].value,
    )
    return QueuedFrame(1, 2, packet, lambda ok, now: None, lane, expiry)


def _steps(frames):
    return [frame.packet.meta["step"] for frame in frames]


def _lane_lengths(queue):
    lanes = queue._lanes
    if isinstance(lanes, dict):  # the reference keys its lanes by class
        lanes = [lanes[cls] for cls in PRIORITY_ORDER]
    return [len(lane) for lane in lanes]


def run_script(queue_type, depths, ops):
    """Everything observable after every step, frames by the step that
    offered them."""
    queue = queue_type(depths)
    observed = []
    for step, op in enumerate(ops):
        if op[0] == "offer":
            frame = _frame(step, op[1], op[2])
            result = queue.offer(frame)
        elif op[0] == "pop":
            frame, expired = queue.pop_live(op[1])
            result = (
                None if frame is None else frame.packet.meta["step"],
                _steps(expired),
            )
        else:
            result = queue.full(op[1])
        observed.append((result, queue.depth, _lane_lengths(queue)))
    return observed


@settings(max_examples=300, deadline=None, derandomize=True)
@given(depths=DEPTHS, ops=st.lists(OPS, max_size=60))
def test_tuple_lanes_match_dict_of_deques(depths, ops):
    assert run_script(PriorityFrameQueue, depths, ops) == run_script(
        ReferenceFrameQueue, depths, ops
    )


def test_scripts_fill_lanes_and_expire_frames():
    # What makes the property bite: a script of the kind it draws
    # refuses an offer at a full lane and skips over expired frames.
    depths = {cls: 1 for cls in PRIORITY_ORDER}
    alarm, bulk = 0, len(PRIORITY_ORDER) - 1
    ops = [
        ("offer", bulk, 1.0), ("offer", bulk, None),
        ("full", bulk),
        ("offer", alarm, 0.5), ("pop", 2.0), ("pop", 2.0),
    ]
    observed = run_script(PriorityFrameQueue, depths, ops)
    assert [step[0] for step in observed] == [
        True, False, True, True, (None, [3, 0]), (None, []),
    ]
    assert observed == run_script(ReferenceFrameQueue, depths, ops)

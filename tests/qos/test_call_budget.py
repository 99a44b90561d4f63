"""Per-frame call budget of the opt-in stack (QoS queues + telemetry).

``qos/`` and ``telemetry/`` do no protocol work: per frame served they
should cost a fixed, small number of Python calls.  This runs one small
scenario with every opt-in layer on under ``sys.setprofile``, counts the
Python-level calls into each file of the two packages, and compares
calls per frame served with the values recorded when the layers were
moved onto held state (ISSUE 24: 95.9 calls per frame before, 46.4
after).  Counts are a function of the seed alone, so the test cannot
flake; an interpreter that inlines comprehensions only lowers them.
"""

import collections
import pathlib
import sys

import repro
from repro.chaos.spec import FaultSpec
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.qos.config import BurstyConfig, QosConfig
from repro.recovery.config import RecoveryConfig
from repro.telemetry.config import TelemetryConfig

PACKAGE_ROOT = str(pathlib.Path(repro.__file__).resolve().parent) + "/"

SCENARIO = ScenarioConfig(
    seed=7,
    sensor_count=60,
    area_side=260.0,
    sim_time=5.0,
    warmup=1.0,
    rate_pps=12.0,
    fault_spec=(
        FaultSpec(kind="links", mean_good=4.0, mean_bad=1.0, start=1.0),
    ),
    recovery=RecoveryConfig(),
    qos=QosConfig(),
    bursty=BurstyConfig(sources=8, peak_rate_pps=12.0, load_multiplier=3.0),
    telemetry=TelemetryConfig(),
)

#: Python calls per frame served, by file, as recorded from this
#: scenario (2 494 frames served).  A file of the two packages that is
#: not listed runs at set-up only and gets :data:`UNLISTED`.  The
#: ``qos/`` rows were last re-recorded when a frame at an idle node
#: stopped going through the queue: no ``QueuedFrame``, ``offer``,
#: ``pop_live`` or ``note_depth`` for it, and no empty wake-up
#: (``backpressure.py`` 4.014, ``mac.py`` 5.153, ``queue.py`` 4.446
#: before).  ``telemetry/profiler.py`` and ``registry.py`` were
#: re-recorded when the profiler's per-event count moved into
#: ``Simulator.step`` (4.859 and 3.688 before).
RECORDED = {
    "qos/admission.py": 1.446,
    "qos/backpressure.py": 2.234,
    "qos/classes.py": 3.043,
    "qos/mac.py": 2.484,
    "qos/queue.py": 1.383,
    "telemetry/flight.py": 7.400,
    "telemetry/profiler.py": 1.005,
    "telemetry/registry.py": 3.402,
    "telemetry/views.py": 11.361,
}
UNLISTED = 0.01
SLACK = 1.10


def calls_by_file(config):
    """Run the scenario; Python calls into each ``qos/`` and
    ``telemetry/`` file, and the run's result."""
    counts = collections.Counter()

    def on_event(frame, event, arg):
        if event == "call":
            filename = frame.f_code.co_filename
            if filename.startswith(PACKAGE_ROOT):
                counts[filename[len(PACKAGE_ROOT):]] += 1

    previous = sys.getprofile()
    sys.setprofile(on_event)
    try:
        result = run_scenario("REFER", config)
    finally:
        sys.setprofile(previous)
    watched = {
        name: calls
        for name, calls in counts.items()
        if name.startswith(("qos/", "telemetry/"))
    }
    return watched, result


def test_opt_in_layers_stay_within_their_per_frame_call_budget():
    counts, result = calls_by_file(SCENARIO)
    served = result.telemetry.registry.get("qos_frames_served").value_at()
    assert served > 2000, "the scenario lost its load"
    assert set(RECORDED) <= set(counts), "a budgeted file never ran"
    over = [
        f"{name}: {calls / served:.3f} calls per frame served, "
        f"budget {RECORDED.get(name, UNLISTED) * SLACK:.3f}"
        for name, calls in sorted(counts.items())
        if calls / served > RECORDED.get(name, UNLISTED) * SLACK
    ]
    assert not over, "per-frame call budget exceeded:\n" + "\n".join(over)

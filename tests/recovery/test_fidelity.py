"""Detector fidelity under bursty (Gilbert-Elliott) link loss.

The experiment behind the detector's adaptive timeout: on links that
fade in bursts, a detector whose timeout tracks the observed RTT keeps
its false-positive rate bounded, while a fixed timeout pinned below
the real round-trip time (:class:`FixedTimeoutDetector`, the strawman
kept here) condemns live nodes constantly.  Both runs are fully
derandomized (fixed seeds, static nodes), so the asserted bounds are
exact regression pins, not statistical hopes.
"""

import random

from repro.chaos import FaultSpec, GilbertElliottLinkFault
from repro.net.mobility import StaticMobility
from repro.net.network import WirelessNetwork
from repro.net.node import Node, NodeRole
from repro.recovery import FailureDetector
from repro.sim.core import Simulator
from repro.util.geometry import Point

#: The pinned fidelity bar, in false positives *per probe sent* (all
#: nodes stay alive, so every condemnation is false): the adaptive
#: detector stays below it, the fixed strawman lands far above it.
FP_PER_PROBE_BOUND = 0.05


class FixedTimeoutDetector(FailureDetector):
    """The strawman: every probe is judged against one fixed timeout,
    pinned below the ~2.3 ms round trip of a probe and its reply, so
    every healthy reply arrives late."""

    def _timeout(self, state):
        return 0.002


def fp_per_probe(stats):
    return stats.false_positives / stats.probes_sent


def run_detector(adaptive: bool, sim_time: float = 60.0):
    """One detector instance over bursty links; all nodes stay alive."""
    sim = Simulator()
    net = WirelessNetwork(sim, random.Random(3))
    for i in range(4):
        net.add_node(
            Node(
                i,
                NodeRole.SENSOR,
                StaticMobility(Point(i * 50.0, 0.0)),
                300.0,
            )
        )
    burst = GilbertElliottLinkFault(
        net, random.Random(21),
        FaultSpec(kind="links", mean_good=6.0, mean_bad=0.5),
    )
    burst.start()
    pairs = [(0, 1), (1, 2), (2, 3), (3, 0)]
    detector_cls = FailureDetector if adaptive else FixedTimeoutDetector
    detector = detector_cls(
        net,
        random.Random(7),
        pairs=lambda: pairs,
        audit_usable=lambda n: net.node(n).usable,
    )
    detector.start()
    sim.run_until(sim_time)
    burst.stop()
    return detector.stats


class TestDetectionFidelity:
    def test_adaptive_timeout_keeps_false_positives_bounded(self):
        stats = run_detector(adaptive=True)
        assert stats.replies > 0
        # The only condemnations left are GE bursts that genuinely
        # outlast the suspicion window — rare by construction.
        assert fp_per_probe(stats) <= FP_PER_PROBE_BOUND

    def test_fixed_timeout_strawman_exceeds_the_bound(self):
        stats = run_detector(adaptive=False)
        assert stats.condemnations > 0
        assert fp_per_probe(stats) > FP_PER_PROBE_BOUND
        # The replies still arrive — just later than the strawman's
        # timeout — which is exactly the failure mode adaptive fixes:
        # the strawman flaps condemn/absolve on healthy-but-slow links.
        assert stats.late_replies > 0
        assert stats.absolutions > 0

    def test_fidelity_gap_is_material(self):
        adaptive = run_detector(adaptive=True)
        strawman = run_detector(adaptive=False)
        assert strawman.condemnations > 10 * max(adaptive.condemnations, 1)
        assert fp_per_probe(strawman) > fp_per_probe(adaptive) + 0.5

    def test_runs_are_derandomized(self):
        a = run_detector(adaptive=True)
        b = run_detector(adaptive=True)
        assert (a.condemnations, a.misses, a.replies) == (
            b.condemnations,
            b.misses,
            b.replies,
        )

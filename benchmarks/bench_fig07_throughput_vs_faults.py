"""Figure 7: throughput versus faulty nodes (Section IV-B).

Paper shape: every system loses throughput as faults grow; REFER's
decline is slight; Kautz-overlay delivers the least in absolute terms
(its long paths cross the 0.6 s QoS bound first).
"""

from _common import bench_figure, emit, series_values

FAULTS = (2, 6, 10)


def test_fig7(benchmark):
    data = benchmark.pedantic(
        lambda: bench_figure("fig7", FAULTS),
        rounds=1,
        iterations=1,
    )
    emit(data, "fig07_throughput_vs_faults.txt")

    refer = series_values(data, "REFER")
    overlay = series_values(data, "Kautz-overlay")
    # Kautz-overlay produces the least throughput at every point.
    for name in ("REFER", "DaTree", "D-DEAR"):
        values = series_values(data, name)
        for i in range(len(FAULTS)):
            assert overlay[i] < values[i], (name, i)
    # REFER's decline across the fault range is small (< 10%).
    assert min(refer) > 0.9 * max(refer)

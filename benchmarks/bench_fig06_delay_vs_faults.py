"""Figure 6: average transmission delay versus faulty nodes (IV-B).

Paper shape: REFER's fault-tolerant routing keeps its delay lowest and
nearly flat; DaTree/D-DEAR grow faster (path re-establishment +
retransmission); Kautz-overlay's multi-hop overlay segments give it by
far the highest delay.
"""

from _common import bench_figure, emit, series_values

FAULTS = (2, 6, 10)


def test_fig6(benchmark):
    data = benchmark.pedantic(
        lambda: bench_figure("fig6", FAULTS),
        rounds=1,
        iterations=1,
    )
    emit(data, "fig06_delay_vs_faults.txt")

    refer = series_values(data, "REFER")
    overlay = series_values(data, "Kautz-overlay")
    # REFER has the least delay at every fault level.
    for name in ("DaTree", "D-DEAR", "Kautz-overlay"):
        values = series_values(data, name)
        for i in range(len(FAULTS)):
            assert refer[i] < values[i], (name, i)
    # The overlay's consecutive multi-hop paths dominate everyone.
    for name in ("REFER", "DaTree", "D-DEAR"):
        values = series_values(data, name)
        assert overlay[-1] > 2 * values[-1]
    # REFER stays nearly flat (local detours, no re-establishment).
    assert max(refer) < 2.0 * min(refer)

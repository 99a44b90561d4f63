"""Figure 4: throughput versus node mobility (Section IV-A).

Paper shape: higher mobility causes a *slight* throughput decrease in
REFER, moderate decreases in DaTree and D-DEAR, and a *sharp* decrease
in Kautz-overlay.
"""

from _common import bench_figure, emit, series_values

SPEEDS = (0.5, 2.0, 3.5, 5.0)


def test_fig4(benchmark):
    data = benchmark.pedantic(
        lambda: bench_figure("fig4", SPEEDS),
        rounds=1,
        iterations=1,
    )
    emit(data, "fig04_throughput_vs_mobility.txt")

    refer = series_values(data, "REFER")
    overlay = series_values(data, "Kautz-overlay")
    # REFER: slight decrease only (within 5% of its low-mobility value).
    assert min(refer) > 0.95 * refer[0]
    # Kautz-overlay: the sharpest decline of all systems.
    overlay_drop = (overlay[0] - overlay[-1]) / overlay[0]
    for name in ("REFER", "DaTree", "D-DEAR"):
        values = series_values(data, name)
        drop = (values[0] - values[-1]) / values[0]
        assert overlay_drop >= drop
    # At high mobility REFER out-delivers the overlay.
    assert refer[-1] > overlay[-1]

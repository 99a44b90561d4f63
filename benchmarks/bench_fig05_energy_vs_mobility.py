"""Figure 5: communication energy versus node mobility (Section IV-A).

Paper shape: all systems consume more with mobility; REFER consumes
significantly less than the rest with only a slight increase; DaTree's
broadcast repairs make it grow rapidly; D-DEAR sits between.
"""

from _common import bench_figure, emit, series_values

SPEEDS = (0.5, 2.0, 3.5, 5.0)


def test_fig5(benchmark):
    data = benchmark.pedantic(
        lambda: bench_figure("fig5", SPEEDS),
        rounds=1,
        iterations=1,
    )
    emit(data, "fig05_energy_vs_mobility.txt")

    refer = series_values(data, "REFER")
    datree = series_values(data, "DaTree")
    ddear = series_values(data, "D-DEAR")
    overlay = series_values(data, "Kautz-overlay")
    # REFER is the cheapest at every mobility level, and nearly flat.
    for i in range(len(SPEEDS)):
        assert refer[i] < datree[i]
        assert refer[i] < ddear[i]
        assert refer[i] < overlay[i]
    assert max(refer) < 1.5 * min(refer)
    # DaTree grows rapidly with mobility and overtakes D-DEAR widely.
    assert datree[-1] > 3 * datree[0]
    assert datree[-1] > 2 * ddear[-1]
    # D-DEAR grows moderately.
    assert ddear[-1] > ddear[0]

"""Figure 9: communication energy versus network size (Section IV-D).

Paper shape: REFER's energy rises only marginally with size; DaTree,
D-DEAR and Kautz-overlay rise rapidly, with DaTree above D-DEAR (all
sensors maintain links, not just heads) and above Kautz-overlay (the
overlay needs no source retransmissions).
"""

from _common import bench_figure, emit, series_values

SIZES = (100, 200, 300, 400)


def test_fig9(benchmark):
    data = benchmark.pedantic(
        lambda: bench_figure("fig9", SIZES),
        rounds=1,
        iterations=1,
    )
    emit(data, "fig09_energy_vs_size.txt")

    refer = series_values(data, "REFER")
    datree = series_values(data, "DaTree")
    ddear = series_values(data, "D-DEAR")
    # REFER: marginal change across the size sweep, cheapest throughout.
    assert max(refer) < 2.0 * min(refer)
    for name in ("DaTree", "D-DEAR", "Kautz-overlay"):
        values = series_values(data, name)
        for i in range(len(SIZES)):
            assert refer[i] < values[i], (name, i)
    # DaTree grows fastest and exceeds D-DEAR at scale.
    assert datree[-1] > 5 * datree[0]
    assert datree[-1] > ddear[-1]
    # D-DEAR also grows with size.
    assert ddear[-1] > 1.5 * ddear[0]

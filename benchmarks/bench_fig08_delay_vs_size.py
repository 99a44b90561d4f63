"""Figure 8: delay versus network size (Section IV-C).

Paper shape: REFER's delay stays nearly constant as the network grows
(fixed-size cells, topology consistency); D-DEAR increases moderately;
DaTree and Kautz-overlay increase sharply, with the overlay far worst.
"""

from _common import bench_figure, emit, series_values

SIZES = (100, 200, 300, 400)


def test_fig8(benchmark):
    data = benchmark.pedantic(
        lambda: bench_figure("fig8", SIZES),
        rounds=1,
        iterations=1,
    )
    emit(data, "fig08_delay_vs_size.txt")

    refer = series_values(data, "REFER")
    datree = series_values(data, "DaTree")
    overlay = series_values(data, "Kautz-overlay")
    # REFER: nearly constant across a 4x size range.  The 100-sensor
    # point is the sparsest and, at two seeds, the noisiest (over six
    # seeds a run's mean delay spans 8-24 ms against 7-9 ms at 400):
    # the factor leaves room for two seeds from the top of that range
    # (1.55 before PR 22's re-pin, 2.08 after; EXPERIMENTS.md).
    assert max(refer) < 2.5 * min(refer)
    # DaTree and the overlay grow with size.
    assert datree[-1] > 1.5 * datree[0]
    assert overlay[-1] > 2.0 * overlay[0]
    # The overlay's delay dwarfs REFER's at scale.
    assert overlay[-1] > 5 * refer[-1]
    # At n = 400, REFER beats DaTree (the paper's crossover happened
    # already by n = 200).
    assert refer[-1] < datree[-1]

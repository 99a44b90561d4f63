"""Figure 8: delay versus network size (Section IV-C).

Paper shape: REFER's delay stays nearly constant as the network grows
(fixed-size cells, topology consistency); D-DEAR increases moderately;
DaTree and Kautz-overlay increase sharply, with the overlay far worst.
"""

from _common import bench_figure, bench_seeds, emit, series_values

SIZES = (100, 200, 300, 400)
# The 100-sensor point is the sparsest of the sweep (twelve sensors a
# cell) and the seed-noisiest: one run's mean REFER delay spans
# 8-24 ms there against 7-9 ms at 400, so a mean of two seeds does not
# resolve "nearly constant" (1.55x on one pair of walks, 2.08x on
# another).  Six do: 1.78x, and 1.82x / 1.81x at four and eight.
MIN_SEEDS = 6


def test_fig8(benchmark):
    data = benchmark.pedantic(
        lambda: bench_figure(
            "fig8", SIZES, seeds=max(bench_seeds(), MIN_SEEDS)
        ),
        rounds=1,
        iterations=1,
    )
    emit(data, "fig08_delay_vs_size.txt")

    refer = series_values(data, "REFER")
    datree = series_values(data, "DaTree")
    overlay = series_values(data, "Kautz-overlay")
    # REFER: nearly constant across a 4x size range.
    assert max(refer) < 2.0 * min(refer)
    # DaTree and the overlay grow with size.
    assert datree[-1] > 1.5 * datree[0]
    assert overlay[-1] > 2.0 * overlay[0]
    # The overlay's delay dwarfs REFER's at scale.
    assert overlay[-1] > 5 * refer[-1]
    # At n = 400, REFER beats DaTree (the paper's crossover happened
    # already by n = 200).
    assert refer[-1] < datree[-1]

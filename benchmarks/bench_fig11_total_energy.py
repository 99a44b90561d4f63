"""Figure 11: total energy = communication + construction (IV-D).

Paper shape: for the deployed systems, topology construction is a
small share of lifetime energy (the paper reports ~0.1% for REFER at
1 Mbps over 1000 s).  The bench regenerates the total-energy series
and additionally reports REFER's construction share both as measured
at bench scale and extrapolated to the paper's traffic scale.
"""

from _common import bench_base_config, bench_figure, emit, series_values

SIZES = (100, 200, 300, 400)

# Paper scale vs bench scale: 1 Mbps ~ 125 pkt/s per source over
# 1000 s, vs REFER_BENCH_RATE pkt/s over REFER_BENCH_SIM_TIME seconds.
PAPER_RATE_PPS = 125.0
PAPER_SIM_TIME = 1000.0


def test_fig11(benchmark):
    base = bench_base_config()
    data = benchmark.pedantic(
        lambda: bench_figure("fig11", SIZES), rounds=1, iterations=1
    )
    emit(data, "fig11_total_energy.txt")

    comm = bench_figure("fig9", SIZES)
    constr = bench_figure("fig10", SIZES, seeds=1)
    scale = (PAPER_RATE_PPS * PAPER_SIM_TIME) / (
        base.rate_pps * base.sim_time
    )
    print("\nREFER construction share of total energy:")
    for i, size in enumerate(SIZES):
        c = constr.series["REFER"][i].mean
        m = comm.series["REFER"][i].mean
        measured = c / (c + m)
        projected = c / (c + m * scale)
        print(
            f"  n={size}: measured {100 * measured:5.1f}%   "
            f"projected at paper traffic scale {100 * projected:5.2f}%"
        )
        # At the paper's traffic scale, construction is negligible.
        assert projected < 0.05

    total = data
    overlay = series_values(total, "Kautz-overlay")
    refer = series_values(total, "REFER")
    for i in range(len(SIZES)):
        assert overlay[i] > refer[i]

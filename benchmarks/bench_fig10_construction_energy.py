"""Figure 10: topology-construction energy versus size (Section IV-D).

Paper shape, at every size:
``DaTree < D-DEAR < REFER << Kautz-overlay``.
DaTree builds its trees with one joint actuator broadcast; D-DEAR adds
per-sensor beacons; REFER adds the actuator exchange plus per-cell
path queries; Kautz-overlay floods once per overlay member.
"""

from _common import bench_figure, emit, series_values

SIZES = (100, 200, 300, 400)


def test_fig10(benchmark):
    # Construction is deterministic given the deployment: 1 seed suffices.
    data = benchmark.pedantic(
        lambda: bench_figure("fig10", SIZES, seeds=1),
        rounds=1,
        iterations=1,
    )
    emit(data, "fig10_construction_energy.txt")

    datree = series_values(data, "DaTree")
    ddear = series_values(data, "D-DEAR")
    refer = series_values(data, "REFER")
    overlay = series_values(data, "Kautz-overlay")
    for i in range(len(SIZES)):
        assert datree[i] < ddear[i] < refer[i] < overlay[i], i
        # The overlay's construction is in a different league.
        assert overlay[i] > 5 * refer[i]

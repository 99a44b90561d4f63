"""Tests for the Section III-A analysis helpers."""

from repro.kautz.analysis import (
    debruijn_node_count,
    degree_diameter_table,
    hypercube_diameter,
    kautz_diameter_for,
    moore_bound,
    moore_bound_ratio,
)


class TestMooreBound:
    def test_moore_bound_values(self):
        assert moore_bound(2, 3) == 15      # 1 + 2 + 4 + 8
        assert moore_bound(3, 2) == 13      # 1 + 3 + 9
        assert moore_bound(1, 4) == 5

    def test_kautz_approaches_moore_bound_as_k_decreases(self):
        # Section III-B: density increases as k decreases.
        ratios = [moore_bound_ratio(3, k) for k in (5, 4, 3, 2, 1)]
        assert ratios == sorted(ratios)

    def test_ratio_below_one(self):
        for d in (2, 3, 4):
            for k in (2, 3, 4):
                assert 0 < moore_bound_ratio(d, k) < 1


class TestProposition31:
    """Kautz beats de Bruijn and hypercube on diameter at equal size."""

    def test_kautz_no_worse_than_debruijn(self):
        for d in (2, 3, 4):
            for n in (50, 200, 1000):
                kautz_k = kautz_diameter_for(n, d)
                db_k = 1
                while debruijn_node_count(d, db_k) < n:
                    db_k += 1
                assert kautz_k <= db_k

    def test_kautz_no_worse_than_hypercube(self):
        for n in (64, 256, 1024):
            for d in (2, 3, 4):
                assert kautz_diameter_for(n, d) <= hypercube_diameter(n) + 1

    def test_table_structure(self):
        table = degree_diameter_table(200, [2, 3])
        assert set(table) == {2, 3}
        assert set(table[2]) == {"kautz", "debruijn", "hypercube"}

    def test_kautz_diameter_for_is_tight(self):
        from repro.kautz.graph import kautz_node_count

        k = kautz_diameter_for(200, 2)
        assert kautz_node_count(2, k) >= 200
        assert k == 1 or kautz_node_count(2, k - 1) < 200


"""Tests for the figure sweep machinery and table rendering."""

import pytest

from repro.experiments.campaign import run_figure
from repro.experiments.config import ScenarioConfig
from repro.experiments.figures import FigureData, SeriesPoint
from repro.experiments.report import format_figure

TINY = ScenarioConfig(sim_time=6.0, warmup=1.0, rate_pps=4.0)


class TestSweep:
    def test_fig4_structure(self):
        data = run_figure(
            "fig4", TINY, (1.0, 3.0), systems=("REFER", "DaTree"), seeds=2
        )
        assert data.figure == "Fig 4"
        assert set(data.series) == {"REFER", "DaTree"}
        assert data.xs() == [1.0, 3.0]
        for points in data.series.values():
            assert all(p.samples == 2 for p in points)
            assert all(p.ci95 >= 0 for p in points)

    def test_value_at(self):
        data = run_figure("fig4", TINY, (1.0,), systems=("REFER",), seeds=1)
        assert data.value_at("REFER", 1.0) > 0
        with pytest.raises(KeyError):
            data.value_at("REFER", 9.9)

    def test_fig10_construction_grows_for_overlay(self):
        data = run_figure(
            "fig10", TINY, (100, 200), systems=("Kautz-overlay",), seeds=1
        )
        series = data.series["Kautz-overlay"]
        assert series[1].mean > series[0].mean


class TestReport:
    def make_data(self):
        return FigureData(
            figure="Fig X",
            title="Demo",
            xlabel="x",
            ylabel="y",
            series={
                "A": [SeriesPoint(1.0, 10.0, 0.5, 3), SeriesPoint(2.0, 20.0, 0.0, 3)],
                "B": [SeriesPoint(1.0, 1234.5, 10.0, 3), SeriesPoint(2.0, 0.001, 0.0, 3)],
            },
        )

    def test_format_contains_all_cells(self):
        text = format_figure(self.make_data())
        assert "Fig X" in text
        assert "A" in text and "B" in text
        assert "10.00" in text
        assert "1,234" in text or "1234" in text
        assert "±" in text

    def test_rows_match_xs(self):
        text = format_figure(self.make_data())
        lines = text.splitlines()
        assert len(lines) == 3 + 2   # header block + 2 data rows

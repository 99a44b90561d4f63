"""Tests for campaign runs and report rendering."""

import pytest

from repro.errors import ConfigError
from repro.experiments.campaign import campaign_report, run_campaign
from repro.experiments.config import ScenarioConfig
from repro.experiments.figures import FIGURE_SPECS

TINY = ScenarioConfig(sim_time=6.0, warmup=1.0, rate_pps=4.0)


class TestRunCampaign:
    def test_subset_selection(self):
        result = run_campaign(TINY, seeds=1, figures=["fig10"])
        assert list(result.figures) == ["fig10"]
        assert result.figures["fig10"].figure == "Fig 10"

    def test_unknown_figure_rejected(self):
        with pytest.raises(ConfigError):
            run_campaign(TINY, seeds=1, figures=["fig99"])

    def test_invalid_seeds(self):
        with pytest.raises(ConfigError):
            run_campaign(TINY, seeds=0)

    def test_all_names_registered(self):
        assert list(FIGURE_SPECS) == [f"fig{i}" for i in range(4, 12)]
        assert all(spec.name == name for name, spec in FIGURE_SPECS.items())

    def test_shared_sweeps_are_memoised(self):
        """Figs 9 & 10 share their size sweep: the second is ~free."""
        import time

        run_campaign(
            TINY.with_(seed=7), seeds=1, figures=["fig9"]
        )
        start = time.perf_counter()
        run_campaign(
            TINY.with_(seed=7), seeds=1, figures=["fig9", "fig10", "fig11"]
        )
        # All three resolve from the memo populated by the first call.
        assert time.perf_counter() - start < 2.0


class TestReport:
    def test_report_structure(self):
        result = run_campaign(TINY, seeds=1, figures=["fig10"])
        text = campaign_report(result)
        assert text.startswith("# REFER evaluation campaign")
        assert "## Fig 10" in text
        assert "REFER" in text and "Kautz-overlay" in text
        assert "seeds=1" in text

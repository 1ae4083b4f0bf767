"""Quick-mode runs of every registered experiment.

These are integration tests of the full experiment pipeline; the quick
flag keeps each run to a few seconds. Shape assertions (who beats whom)
live in the benchmarks, where trial counts are statistically meaningful.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.experiments as experiments


class TestFigureExperiments:
    @pytest.mark.parametrize("experiment_id", ["fig5", "fig6"])
    def test_effectiveness_quick(self, experiment_id):
        result = experiments.run(experiment_id, quick=True)
        assert result.experiment_id == experiment_id
        data = result.data
        assert set(data["mean_loss_db"]) == {"Random", "Scan", "Proposed"}
        for series in data["mean_loss_db"].values():
            assert len(series) == len(data["search_rates"])
            assert all(np.isfinite(v) and v >= 0 for v in series)
        assert "search rate" in result.table

    @pytest.mark.parametrize("experiment_id", ["fig7", "fig8"])
    def test_cost_quick(self, experiment_id):
        result = experiments.run(experiment_id, quick=True)
        data = result.data
        assert set(data["required_rates"]) == {"Random", "Scan", "Proposed"}
        for series in data["required_rates"].values():
            assert len(series) == len(data["target_losses_db"])
            assert all(0.0 < rate <= 1.0 for rate in series)
            # Monotone: laxer targets need no more measurements.
            assert all(b <= a + 1e-12 for a, b in zip(series, series[1:]))


class TestAblationExperiments:
    def test_lowrank_quick(self):
        result = experiments.run("lowrank", quick=True)
        small = result.data["4x4 (16 elems)"]
        # The paper's setup fact: a few dims carry ~95% on 16 elements.
        assert small["mean_rank95"] < 8
        assert small["mean_top5"] > 0.85

    def test_estimator_ablation_quick(self):
        result = experiments.run("abl-estimator", quick=True)
        assert set(result.data["mean_loss_db"]) == {
            "ML (Eq. 23)",
            "LS+nuclear",
            "BackProjection",
        }

    def test_j_ablation_quick(self):
        result = experiments.run("abl-j", quick=True)
        assert "J=4" in result.data["mean_loss_db"]

    def test_mu_ablation_quick(self):
        result = experiments.run("abl-mu", quick=True)
        assert len(result.data["mean_loss_db"]) == 2

    def test_floor_ablation_quick(self):
        result = experiments.run("abl-floor", quick=True)
        assert any("literal" in name for name in result.data["mean_loss_db"])

    def test_mac_overhead_quick(self):
        result = experiments.run("mac-overhead", quick=True)
        schemes = result.data["schemes"]
        assert "Proposed" in schemes and "Random" in schemes
        for payload in schemes.values():
            assert all(v >= 0 for v in payload["net_bps_hz"])
            assert all(0 <= v <= 1 for v in payload["overhead"])

    def test_cell_search_quick(self):
        result = experiments.run("cell-search", quick=True)
        strategies = result.data["strategies"]
        assert set(strategies) == {"random RX", "scanning RX"}
        for payload in strategies.values():
            assert 0.0 <= payload["detection_rate"] <= 1.0

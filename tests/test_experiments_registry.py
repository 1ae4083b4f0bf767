"""Tests for the experiment registry and rendering."""

from __future__ import annotations

import importlib
from dataclasses import replace

import pytest

import repro.experiments as experiments
from repro.exceptions import ExperimentError
from repro.experiments import registry
from repro.experiments.registry import (
    EXPERIMENT_MODULES,
    ExperimentResult,
    get,
    list_ids,
    register,
)
from repro.experiments.render import render_table
from repro.sim.sweep import CostEfficiencyCurve, EffectivenessSweep


class TestRegistry:
    def test_all_paper_figures_registered(self):
        ids = list_ids()
        for required in ("fig5", "fig6", "fig7", "fig8"):
            assert required in ids

    def test_ablations_registered(self):
        ids = list_ids()
        for required in (
            "lowrank",
            "abl-estimator",
            "abl-j",
            "abl-mu",
            "abl-floor",
            "mac-overhead",
            "cell-search",
        ):
            assert required in ids

    def test_get_known(self):
        experiment = get("fig5")
        assert experiment.paper_artifact == "Figure 5"

    def test_get_unknown(self):
        with pytest.raises(ExperimentError):
            get("fig99")

    def test_duplicate_rejected(self):
        experiment = get("fig5")
        with pytest.raises(ExperimentError):
            register(experiment)

    def test_unlisted_id_rejected(self):
        experiment = replace(get("fig5"), experiment_id="fig99")
        with pytest.raises(ExperimentError, match="EXPERIMENT_MODULES"):
            register(experiment)

    def test_unknown_id_error_lists_every_id(self):
        with pytest.raises(ExperimentError) as excinfo:
            get("fig99")
        for experiment_id in EXPERIMENT_MODULES:
            assert experiment_id in str(excinfo.value)

    def test_result_str_is_table(self):
        result = ExperimentResult("x", "t", {}, table="hello")
        assert str(result) == "hello"


class TestRegistryTable:
    """``EXPERIMENT_MODULES`` must agree with what the modules register."""

    def test_covers_every_experiment(self):
        assert len(EXPERIMENT_MODULES) == 14
        assert list_ids() == sorted(EXPERIMENT_MODULES)

    def test_home_modules_register_exactly_the_table(self):
        for module in sorted(set(EXPERIMENT_MODULES.values())):
            importlib.import_module(module)
        assert sorted(registry._REGISTRY) == sorted(EXPERIMENT_MODULES)

    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENT_MODULES))
    def test_runner_lives_in_mapped_module(self, experiment_id):
        experiment = get(experiment_id)
        assert experiment.experiment_id == experiment_id
        assert experiment.runner.__module__ == EXPERIMENT_MODULES[experiment_id]


class TestRenderTable:
    def test_alignment(self):
        table = render_table(["a", "bbb"], [["1", "2"], ["33", "4"]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbb" in lines[1]
        # All body lines share the header's total width (fixed columns).
        assert len({len(line) for line in lines[1:]}) == 1

    def test_missing_cells_padded(self):
        table = render_table(["a", "b"], [["1"]])
        assert table.splitlines()[-1].strip() == "1"


class TestRenderSweeps:
    def test_effectiveness_render(self):
        sweep = EffectivenessSweep(
            search_rates=[0.1, 0.2],
            losses={"Random": [[1.0, 2.0], [0.5, 0.7]], "Proposed": [[0.5], [0.2]]},
        )
        text = experiments.render_effectiveness(sweep, "demo")
        assert "demo" in text
        assert "Random loss(dB)" in text
        assert "10.0%" in text

    def test_cost_render(self):
        curve = CostEfficiencyCurve(
            target_losses_db=[1.0, 3.0],
            required_rates={"Random": [0.5, 0.2], "Proposed": [0.3, 0.1]},
        )
        text = experiments.render_cost_efficiency(curve, "costs")
        assert "costs" in text
        assert "Proposed req.rate" in text
        assert "30.0%" in text

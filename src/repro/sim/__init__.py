"""Simulation harness: scenarios, trial running, sweeps, aggregation."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_namespace

if TYPE_CHECKING:
    from repro.sim.aggregate import SeriesStats, summarize
    from repro.sim.batch import run_trial_block
    from repro.sim.config import ChannelKind, ScenarioConfig
    from repro.sim.metrics import (
        PairEvaluation,
        evaluate_pair,
        loss_from_matrix_db,
        snr_loss_db,
    )
    from repro.sim.parallel import (
        SCHEME_BUILDERS,
        SchemeSpec,
    )
    from repro.sim.persistence import (
        load_cost_curve,
        load_effectiveness_sweep,
        save_cost_curve,
        save_effectiveness_sweep,
    )
    from repro.sim.runner import (
        AlgorithmFactory,
        TrialOutcome,
        run_trial,
        run_trials,
        standard_schemes,
    )
    from repro.sim.scenario import Scenario
    from repro.sim.sweep import (
        CostEfficiencyCurve,
        EffectivenessSweep,
        effectiveness_sweep,
        required_search_rates,
    )

__all__ = [
    "SeriesStats",
    "summarize",
    "run_trial_block",
    "ChannelKind",
    "ScenarioConfig",
    "PairEvaluation",
    "evaluate_pair",
    "loss_from_matrix_db",
    "snr_loss_db",
    "SCHEME_BUILDERS",
    "SchemeSpec",
    "load_cost_curve",
    "load_effectiveness_sweep",
    "save_cost_curve",
    "save_effectiveness_sweep",
    "AlgorithmFactory",
    "TrialOutcome",
    "run_trial",
    "run_trials",
    "standard_schemes",
    "Scenario",
    "CostEfficiencyCurve",
    "EffectivenessSweep",
    "effectiveness_sweep",
    "required_search_rates",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.sim.aggregate": ("SeriesStats", "summarize"),
        "repro.sim.batch": ("run_trial_block",),
        "repro.sim.config": ("ChannelKind", "ScenarioConfig"),
        "repro.sim.metrics": (
            "PairEvaluation",
            "evaluate_pair",
            "loss_from_matrix_db",
            "snr_loss_db",
        ),
        "repro.sim.parallel": (
            "SCHEME_BUILDERS",
                    "SchemeSpec",
        ),
        "repro.sim.persistence": (
            "load_cost_curve",
            "load_effectiveness_sweep",
            "save_cost_curve",
            "save_effectiveness_sweep",
        ),
        "repro.sim.runner": (
            "AlgorithmFactory",
            "TrialOutcome",
            "run_trial",
            "run_trials",
            "standard_schemes",
        ),
        "repro.sim.scenario": ("Scenario",),
        "repro.sim.sweep": (
            "CostEfficiencyCurve",
            "EffectivenessSweep",
            "effectiveness_sweep",
            "required_search_rates",
        ),
    },
)

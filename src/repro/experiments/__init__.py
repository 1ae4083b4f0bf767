"""Experiment registry and per-figure reproduction modules.

The registry knows every experiment id up front: ``fig5``–``fig8`` (the
paper's evaluation figures), the ``lowrank`` setup fact, the ``abl-*``
ablations, the ``ext-*`` extensions and the MAC / matrix-completion
substrate checks. An experiment's module is imported, and so registered,
the first time :func:`get` or :func:`run` asks for its id.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_namespace

if TYPE_CHECKING:
    from repro.experiments.common import (
        DEFAULT_SEARCH_RATES,
        DEFAULT_SEED,
        DEFAULT_TARGET_LOSSES_DB,
        DEFAULT_TRIALS,
        build_scenario,
    )
    from repro.experiments.fig5_singlepath_effectiveness import run_fig5
    from repro.experiments.fig6_multipath_effectiveness import run_fig6
    from repro.experiments.fig7_singlepath_cost import run_fig7
    from repro.experiments.fig8_multipath_cost import run_fig8
    from repro.experiments.extensions import (
        run_interference,
        run_scheme_comparison,
        run_tracking,
    )
    from repro.experiments.ablations import (
        run_cell_search,
        run_estimator_ablation,
        run_floor_ablation,
        run_j_ablation,
        run_lowrank,
        run_mac_overhead,
        run_mu_ablation,
    )
    from repro.experiments.registry import (
        Experiment,
        ExperimentResult,
        get,
        list_ids,
        register,
        run,
    )
    from repro.experiments.report import collect_results, render_report
    from repro.experiments.render import (
        render_cost_efficiency,
        render_effectiveness,
        render_table,
    )

__all__ = [
    "DEFAULT_SEARCH_RATES",
    "DEFAULT_SEED",
    "DEFAULT_TARGET_LOSSES_DB",
    "DEFAULT_TRIALS",
    "build_scenario",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_cell_search",
    "run_estimator_ablation",
    "run_floor_ablation",
    "run_j_ablation",
    "run_lowrank",
    "run_mac_overhead",
    "run_mu_ablation",
    "run_interference",
    "run_scheme_comparison",
    "run_tracking",
    "Experiment",
    "ExperimentResult",
    "get",
    "list_ids",
    "register",
    "run",
    "collect_results",
    "render_report",
    "render_cost_efficiency",
    "render_effectiveness",
    "render_table",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.experiments.common": (
            "DEFAULT_SEARCH_RATES",
            "DEFAULT_SEED",
            "DEFAULT_TARGET_LOSSES_DB",
            "DEFAULT_TRIALS",
            "build_scenario",
        ),
        "repro.experiments.fig5_singlepath_effectiveness": ("run_fig5",),
        "repro.experiments.fig6_multipath_effectiveness": ("run_fig6",),
        "repro.experiments.fig7_singlepath_cost": ("run_fig7",),
        "repro.experiments.fig8_multipath_cost": ("run_fig8",),
        "repro.experiments.extensions": (
            "run_interference",
            "run_scheme_comparison",
            "run_tracking",
        ),
        "repro.experiments.ablations": (
            "run_cell_search",
            "run_estimator_ablation",
            "run_floor_ablation",
            "run_j_ablation",
            "run_lowrank",
            "run_mac_overhead",
            "run_mu_ablation",
        ),
        "repro.experiments.registry": (
            "Experiment",
            "ExperimentResult",
            "get",
            "list_ids",
            "register",
            "run",
        ),
        "repro.experiments.report": ("collect_results", "render_report"),
        "repro.experiments.render": (
            "render_cost_efficiency",
            "render_effectiveness",
            "render_table",
        ),
    },
)

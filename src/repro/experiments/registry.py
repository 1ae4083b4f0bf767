"""Experiment registry.

Every reproducible artifact (paper figure or ablation) registers itself
under a stable id (``fig5`` ... ``fig8``, ``lowrank``, ``abl-*``,
``ext-*``, ``mac-overhead``, ``cell-search``); the CLI and the benchmark
suite both dispatch through this registry, so "the code that regenerates
Figure N" has exactly one home.

:data:`EXPERIMENT_MODULES` names that home for every id, so listing the
ids imports nothing and :func:`get` imports only the module that
registers the experiment asked for.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.exceptions import ExperimentError

__all__ = [
    "EXPERIMENT_MODULES",
    "ExperimentResult",
    "Experiment",
    "register",
    "get",
    "list_ids",
    "run",
]

_ABLATIONS = "repro.experiments.ablations"
_EXTENSIONS = "repro.experiments.extensions"

#: Every experiment id and the module whose import registers it.
EXPERIMENT_MODULES: Dict[str, str] = {
    "fig5": "repro.experiments.fig5_singlepath_effectiveness",
    "fig6": "repro.experiments.fig6_multipath_effectiveness",
    "fig7": "repro.experiments.fig7_singlepath_cost",
    "fig8": "repro.experiments.fig8_multipath_cost",
    "lowrank": _ABLATIONS,
    "abl-estimator": _ABLATIONS,
    "abl-j": _ABLATIONS,
    "abl-mu": _ABLATIONS,
    "abl-floor": _ABLATIONS,
    "mac-overhead": _ABLATIONS,
    "cell-search": _ABLATIONS,
    "ext-schemes": _EXTENSIONS,
    "ext-tracking": _EXTENSIONS,
    "ext-interference": _EXTENSIONS,
}


@dataclass
class ExperimentResult:
    """Output of one experiment run: structured data plus a rendered table."""

    experiment_id: str
    title: str
    data: Dict[str, Any]
    table: str

    def __str__(self) -> str:
        return self.table


@dataclass(frozen=True)
class Experiment:
    """A registered experiment: metadata plus its runner."""

    experiment_id: str
    title: str
    paper_artifact: str  # e.g. "Figure 5" or "setup fact (Sec. IV-A1)"
    runner: Callable[..., ExperimentResult]
    description: str = ""
    #: Optional builder of the flight-recorder ``run_meta`` block: given
    #: the same overrides the runner would get, returns the scenario
    #: config / scheme specs / rate grid / seed that ``repro diff`` needs
    #: to re-execute one trial of a recorded trace (see docs/drift.md).
    replay_meta: Optional[Callable[..., Dict[str, Any]]] = None


_REGISTRY: Dict[str, Experiment] = {}


def register(experiment: Experiment) -> Experiment:
    """Add an experiment to the registry.

    Ids must be unique and listed in :data:`EXPERIMENT_MODULES`.
    """
    experiment_id = experiment.experiment_id
    if experiment_id in _REGISTRY:
        raise ExperimentError(f"duplicate experiment id {experiment_id!r}")
    if experiment_id not in EXPERIMENT_MODULES:
        raise ExperimentError(
            f"experiment id {experiment_id!r} has no entry in EXPERIMENT_MODULES"
        )
    _REGISTRY[experiment_id] = experiment
    return experiment


def get(experiment_id: str) -> Experiment:
    """Look up an experiment by id, importing its module on first use."""
    if experiment_id not in _REGISTRY:
        module = EXPERIMENT_MODULES.get(experiment_id)
        if module is None:
            known = ", ".join(list_ids())
            raise ExperimentError(
                f"unknown experiment {experiment_id!r}; known: {known}"
            )
        importlib.import_module(module)
    return _REGISTRY[experiment_id]


def list_ids() -> List[str]:
    """All experiment ids, sorted."""
    return sorted(EXPERIMENT_MODULES)


def run(experiment_id: str, **overrides: Any) -> ExperimentResult:
    """Run an experiment by id, forwarding keyword overrides."""
    return get(experiment_id).runner(**overrides)

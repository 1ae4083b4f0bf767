"""Parameter sweeps: the two experiment shapes of the paper's evaluation.

* **Effectiveness sweep** (Figs. 5–6): SNR loss as a function of search
  rate, per scheme.
* **Cost-efficiency curve** (Figs. 7–8): the smallest search rate at
  which a scheme's loss meets a target, per target loss. Following the
  paper's protocol ("each scheme will continue searching beam pairs until
  the obtained Loss is smaller than the targeted SNR Loss threshold"), we
  evaluate schemes on a search-rate grid and report, per target, the
  first grid rate whose *mean* loss meets the target; targets that even
  the full sweep cannot meet report 1.0 (exhaustive search always meets
  any non-negative target).

Common random numbers: the same trial index draws the same channel at
every search rate, so per-scheme curves are smooth in the rate dimension
and scheme differences are paired comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, ValidationError
from repro.obs import ProgressCallback, ProgressReporter, get_logger, get_recorder
from repro.sim.aggregate import SeriesStats, summarize
from repro.sim.batch import run_trial_blocks
from repro.sim.runner import AlgorithmFactory
from repro.sim.scenario import Scenario

logger = get_logger("sim.sweep")

__all__ = [
    "EffectivenessSweep",
    "CostEfficiencyCurve",
    "effectiveness_sweep",
    "required_search_rates",
]


@dataclass
class EffectivenessSweep:
    """Loss-vs-search-rate series per scheme (Figs. 5–6 data)."""

    search_rates: List[float]
    losses: Dict[str, List[List[float]]]  # scheme -> rate index -> trial losses
    stats: Dict[str, List[SeriesStats]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.stats:
            self.stats = {
                scheme: [summarize(trial_losses) for trial_losses in per_rate]
                for scheme, per_rate in self.losses.items()
            }

    def mean_loss(self, scheme: str) -> List[float]:
        """Mean loss (dB) per search rate for one scheme."""
        return [stat.mean for stat in self.stats[scheme]]

    def schemes(self) -> List[str]:
        """Scheme names in insertion order."""
        return list(self.losses.keys())


@dataclass
class CostEfficiencyCurve:
    """Required-search-rate-vs-target-loss series per scheme (Figs. 7–8)."""

    target_losses_db: List[float]
    required_rates: Dict[str, List[float]]

    def schemes(self) -> List[str]:
        """Scheme names in insertion order."""
        return list(self.required_rates.keys())


def effectiveness_sweep(
    scenario: Scenario,
    schemes: Mapping[str, AlgorithmFactory],
    search_rates: Sequence[float],
    num_trials: int,
    base_seed: int = 0,
    progress: Optional[ProgressCallback] = None,
    batch_trials: Optional[int] = None,
    store=None,
    shard_trials: Optional[int] = None,
    checkpoints: bool = False,
) -> EffectivenessSweep:
    """Run every scheme at every search rate; collect per-trial losses.

    The direct path (no ``store``) goes trial by trial: each block of
    trials draws its channels once for all rates, and each scheme runs
    once per trial at the largest budget, settling the smaller budgets on
    the way (:func:`repro.sim.batch.run_trial_blocks`). Every rate's
    losses are what a run at that rate alone gives; a rate listed twice
    runs once.

    ``progress`` receives throttled completion/ETA updates over the whole
    ``len(search_rates) * num_trials`` grid; it observes the sweep without
    touching its RNG streams, so results are identical with or without it.

    ``batch_trials`` trials share one stacked channel block (``None``: one
    trial per block); seeded results are bit-identical for any block size.

    ``store`` (a :class:`~repro.campaign.ShardStore` or a directory path)
    routes the sweep through the checkpointed campaign scheduler: the
    grid is sharded (``shard_trials`` trials per shard), completed shards
    are skipped on re-runs, and results are bit-identical to the direct
    path. Because shards must be reconstructible in other processes, the
    ``schemes`` mapping must then hold picklable
    :class:`~repro.sim.parallel.SchemeSpec` values instead of factory
    closures (see :func:`repro.campaign.standard_scheme_specs`).
    """
    if store is not None:
        return _effectiveness_sweep_via_campaign(
            scenario,
            schemes,
            search_rates,
            num_trials,
            base_seed=base_seed,
            progress=progress,
            batch_trials=batch_trials,
            store=store,
            shard_trials=shard_trials,
            checkpoints=checkpoints,
        )
    rates = [float(rate) for rate in search_rates]
    if not rates:
        raise ConfigurationError("need at least one search rate")
    if any(not 0.0 < rate <= 1.0 for rate in rates):
        raise ConfigurationError(f"search rates must be in (0, 1], got {rates}")
    if num_trials < 1:
        raise ConfigurationError(f"num_trials must be >= 1, got {num_trials}")
    recorder = get_recorder()
    reporter = ProgressReporter(len(rates) * num_trials, progress, label="sweep")
    logger.info(
        "effectiveness sweep: %d rates x %d trials, %d schemes",
        len(rates),
        num_trials,
        len(schemes),
    )
    losses: Dict[str, List[List[float]]] = {name: [[] for _ in rates] for name in schemes}
    with recorder.span(
        "effectiveness_sweep", rates=rates, num_trials=num_trials, schemes=list(schemes)
    ):
        for per_rate in run_trial_blocks(
            scenario, schemes, rates, base_seed, range(num_trials), batch_trials
        ):
            for rate_index, outcomes in enumerate(per_rate):
                for name in schemes:
                    losses[name][rate_index].append(outcomes[name].loss_db)
            reporter.update(len(rates))
    return EffectivenessSweep(search_rates=rates, losses=losses)


def _effectiveness_sweep_via_campaign(
    scenario: Scenario,
    schemes: Mapping[str, AlgorithmFactory],
    search_rates: Sequence[float],
    num_trials: int,
    base_seed: int,
    progress: Optional[ProgressCallback],
    batch_trials: Optional[int],
    store,
    shard_trials: Optional[int],
    checkpoints: bool = False,
) -> EffectivenessSweep:
    """The ``store=`` path: plan shards, run/resume, reassemble.

    The plan holds each distinct rate once; a rate listed twice gets its
    series repeated, as the direct path reports it.
    """
    from repro.campaign import (
        ShardStore,
        assemble_effectiveness_sweep,
        plan_effectiveness_sweep,
        run_campaign,
    )
    from repro.sim.parallel import SchemeSpec

    specs = []
    for name, value in schemes.items():
        if not isinstance(value, SchemeSpec):
            raise ConfigurationError(
                "effectiveness_sweep(store=...) needs picklable SchemeSpec"
                f" values (got {type(value).__name__} for {name!r});"
                " see repro.campaign.standard_scheme_specs"
            )
        if value.name != name:
            raise ConfigurationError(
                f"scheme key {name!r} does not match its spec name {value.name!r}"
            )
        specs.append(value)
    if not isinstance(store, ShardStore):
        store = ShardStore(store)
    rates = [float(rate) for rate in search_rates]
    plan = plan_effectiveness_sweep(
        scenario.config,
        specs,
        list(dict.fromkeys(rates)),
        num_trials,
        base_seed=base_seed,
        shard_trials=shard_trials,
    )
    run_campaign(
        plan,
        store,
        batch_trials=batch_trials,
        progress=progress,
        checkpoints=checkpoints,
    )
    planned = assemble_effectiveness_sweep(plan, store)
    position = {rate: index for index, rate in enumerate(planned.search_rates)}
    losses = {
        name: [list(per_rate[position[rate]]) for rate in rates]
        for name, per_rate in planned.losses.items()
    }
    return EffectivenessSweep(search_rates=rates, losses=losses)


def required_search_rates(
    sweep: EffectivenessSweep,
    target_losses_db: Sequence[float],
) -> CostEfficiencyCurve:
    """Per target loss, the smallest swept rate whose mean loss meets it."""
    targets = [float(target) for target in target_losses_db]
    if not targets:
        raise ValidationError("need at least one target loss")
    if any(target < 0 for target in targets):
        raise ValidationError(f"target losses must be >= 0 dB, got {targets}")
    recorder = get_recorder()
    if recorder.enabled:
        recorder.event(
            "required_search_rates",
            num_targets=len(targets),
            num_schemes=len(sweep.schemes()),
        )
    order = np.argsort(sweep.search_rates)
    sorted_rates = [sweep.search_rates[i] for i in order]
    curve: Dict[str, List[float]] = {}
    for scheme in sweep.schemes():
        means = [sweep.stats[scheme][i].mean for i in order]
        required: List[float] = []
        for target in targets:
            rate = 1.0  # exhaustive search meets any target
            for mean, candidate in zip(means, sorted_rates):
                if mean <= target:
                    rate = candidate
                    break
            required.append(rate)
        curve[scheme] = required
    return CostEfficiencyCurve(target_losses_db=targets, required_rates=curve)

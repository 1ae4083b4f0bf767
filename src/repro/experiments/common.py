"""Shared machinery for the figure-reproduction experiments.

Figures 5–8 share one pipeline: build the Sec. V-A scenario for the
requested channel family, sweep the three schemes over search rates with
common random numbers, and either report loss-vs-rate (Figs. 5–6) or
invert the sweep into required-rate-vs-target-loss (Figs. 7–8).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.experiments.registry import ExperimentResult
from repro.experiments.render import render_cost_efficiency, render_effectiveness
from repro.obs import ProgressCallback
from repro.sim.config import ChannelKind, ScenarioConfig
from repro.sim.runner import standard_schemes
from repro.sim.scenario import Scenario
from repro.sim.sweep import (
    EffectivenessSweep,
    effectiveness_sweep,
    required_search_rates,
)

__all__ = [
    "DEFAULT_SEARCH_RATES",
    "DEFAULT_TARGET_LOSSES_DB",
    "DEFAULT_TRIALS",
    "DEFAULT_SEED",
    "build_scenario",
    "run_effectiveness_experiment",
    "run_cost_experiment",
    "effectiveness_replay_meta",
    "cost_replay_meta",
]

#: Search-rate grid for the effectiveness figures. The paper's axes are
#: unreadable in the available scan; this grid spans "very cheap" to
#: "half of exhaustive", which brackets the regime the paper discusses.
DEFAULT_SEARCH_RATES: Tuple[float, ...] = (0.05, 0.10, 0.15, 0.20, 0.30, 0.40)

#: Target-loss grid for the cost-efficiency figures (the paper's x-axis
#: runs over a few dB of tolerated loss).
DEFAULT_TARGET_LOSSES_DB: Tuple[float, ...] = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)

DEFAULT_TRIALS = 30
DEFAULT_SEED = 2016  # the paper's year


def build_scenario(channel: ChannelKind, snr_db: float = 20.0) -> Scenario:
    """The paper's Sec. V-A setup: 4x4 TX UPA, 8x8 RX UPA."""
    return Scenario(ScenarioConfig(channel=channel, snr_db=snr_db))


def _replay_meta(
    channel: ChannelKind,
    search_rates: Sequence[float],
    num_trials: int,
    base_seed: int,
    snr_db: float,
    measurements_per_slot: int,
) -> Dict[str, object]:
    """The trace ``run_meta`` block that makes a recorded run replayable.

    Carries exactly what :func:`repro.obs.diff.replay_trial` needs to
    re-execute any one trial bit-identically: the scenario config, the
    picklable scheme specs, the rate grid, and the base seed.
    """
    from repro.campaign import standard_scheme_specs

    config = ScenarioConfig(channel=channel, snr_db=snr_db)
    return {
        "config": config.to_dict(),
        "schemes": [
            {"name": spec.name, "params": dict(spec.params)}
            for spec in standard_scheme_specs(
                measurements_per_slot=measurements_per_slot
            )
        ],
        "search_rates": [float(rate) for rate in search_rates],
        "base_seed": int(base_seed),
        "num_trials": int(num_trials),
    }


def effectiveness_replay_meta(
    channel: ChannelKind,
    num_trials: int = DEFAULT_TRIALS,
    base_seed: int = DEFAULT_SEED,
    search_rates: Optional[Sequence[float]] = None,
    snr_db: float = 20.0,
    measurements_per_slot: int = 8,
    quick: bool = False,
    **_ignored: object,
) -> Dict[str, object]:
    """Replay metadata for Figs. 5/6 under the same override resolution
    as :func:`run_effectiveness_experiment` (quick clamps included)."""
    if quick:
        num_trials = min(num_trials, 4)
        search_rates = search_rates or (0.10, 0.20)
    rates = list(search_rates or DEFAULT_SEARCH_RATES)
    return _replay_meta(
        channel, rates, num_trials, base_seed, snr_db, measurements_per_slot
    )


def cost_replay_meta(
    channel: ChannelKind,
    num_trials: int = DEFAULT_TRIALS,
    base_seed: int = DEFAULT_SEED,
    search_rates: Optional[Sequence[float]] = None,
    snr_db: float = 20.0,
    measurements_per_slot: int = 8,
    quick: bool = False,
    **_ignored: object,
) -> Dict[str, object]:
    """Replay metadata for Figs. 7/8 under the same override resolution
    as :func:`run_cost_experiment`."""
    if quick:
        num_trials = min(num_trials, 4)
        search_rates = search_rates or (0.10, 0.20, 0.40)
    rates = list(search_rates or DEFAULT_SEARCH_RATES)
    return _replay_meta(
        channel, rates, num_trials, base_seed, snr_db, measurements_per_slot
    )


def _sweep(
    channel: ChannelKind,
    search_rates: Sequence[float],
    num_trials: int,
    base_seed: int,
    snr_db: float,
    measurements_per_slot: int,
    progress: Optional[ProgressCallback] = None,
    batch_trials: Optional[int] = None,
    store=None,
    shard_trials: Optional[int] = None,
    checkpoints: bool = False,
) -> EffectivenessSweep:
    scenario = build_scenario(channel, snr_db=snr_db)
    if store is not None:
        # The campaign path needs picklable scheme specs rather than the
        # factory closures; the standard specs mirror standard_schemes.
        from repro.campaign import standard_scheme_specs

        specs = standard_scheme_specs(measurements_per_slot=measurements_per_slot)
        return effectiveness_sweep(
            scenario,
            {spec.name: spec for spec in specs},
            search_rates,
            num_trials,
            base_seed=base_seed,
            progress=progress,
            batch_trials=batch_trials,
            store=store,
            shard_trials=shard_trials,
            checkpoints=checkpoints,
        )
    schemes = standard_schemes(measurements_per_slot=measurements_per_slot)
    return effectiveness_sweep(
        scenario,
        schemes,
        search_rates,
        num_trials,
        base_seed=base_seed,
        progress=progress,
        batch_trials=batch_trials,
    )


def run_effectiveness_experiment(
    experiment_id: str,
    title: str,
    channel: ChannelKind,
    num_trials: int = DEFAULT_TRIALS,
    base_seed: int = DEFAULT_SEED,
    search_rates: Optional[Sequence[float]] = None,
    snr_db: float = 20.0,
    measurements_per_slot: int = 8,
    quick: bool = False,
    progress: Optional[ProgressCallback] = None,
    batch_trials: Optional[int] = None,
    store=None,
    shard_trials: Optional[int] = None,
    checkpoints: bool = False,
) -> ExperimentResult:
    """Figures 5/6: SNR loss vs search rate for Random/Scan/Proposed.

    ``batch_trials`` runs the sweep through the batched trial engine
    (bit-identical seeded results, one stacked channel/solver program per
    block of that many trials). ``store`` (a directory path or
    :class:`~repro.campaign.ShardStore`) checkpoints the sweep through
    the campaign scheduler: interrupted runs resume by skipping completed
    shards, with bit-identical results.
    """
    if quick:
        num_trials = min(num_trials, 4)
        search_rates = search_rates or (0.10, 0.20)
    rates = list(search_rates or DEFAULT_SEARCH_RATES)
    sweep = _sweep(
        channel,
        rates,
        num_trials,
        base_seed,
        snr_db,
        measurements_per_slot,
        progress,
        batch_trials=batch_trials,
        store=store,
        shard_trials=shard_trials,
        checkpoints=checkpoints,
    )
    data: Dict[str, object] = {
        "search_rates": rates,
        "num_trials": num_trials,
        "channel": channel.value,
        "mean_loss_db": {name: sweep.mean_loss(name) for name in sweep.schemes()},
        "median_loss_db": {
            name: [stat.median for stat in sweep.stats[name]]
            for name in sweep.schemes()
        },
        "ci95_db": {
            name: [stat.ci95_halfwidth for stat in sweep.stats[name]]
            for name in sweep.schemes()
        },
    }
    table = render_effectiveness(sweep, title)
    return ExperimentResult(
        experiment_id=experiment_id, title=title, data=data, table=table
    )


def run_cost_experiment(
    experiment_id: str,
    title: str,
    channel: ChannelKind,
    num_trials: int = DEFAULT_TRIALS,
    base_seed: int = DEFAULT_SEED,
    search_rates: Optional[Sequence[float]] = None,
    target_losses_db: Optional[Sequence[float]] = None,
    snr_db: float = 20.0,
    measurements_per_slot: int = 8,
    quick: bool = False,
    progress: Optional[ProgressCallback] = None,
    batch_trials: Optional[int] = None,
    store=None,
    shard_trials: Optional[int] = None,
    checkpoints: bool = False,
) -> ExperimentResult:
    """Figures 7/8: required search rate vs target SNR loss.

    ``store`` checkpoints the underlying sweep through the campaign
    scheduler (see :func:`run_effectiveness_experiment`).
    """
    if quick:
        num_trials = min(num_trials, 4)
        search_rates = search_rates or (0.10, 0.20, 0.40)
        target_losses_db = target_losses_db or (2.0, 4.0, 6.0)
    rates = list(search_rates or DEFAULT_SEARCH_RATES)
    targets = list(target_losses_db or DEFAULT_TARGET_LOSSES_DB)
    sweep = _sweep(
        channel,
        rates,
        num_trials,
        base_seed,
        snr_db,
        measurements_per_slot,
        progress,
        batch_trials=batch_trials,
        store=store,
        shard_trials=shard_trials,
        checkpoints=checkpoints,
    )
    curve = required_search_rates(sweep, targets)
    data: Dict[str, object] = {
        "target_losses_db": targets,
        "rate_grid": rates,
        "num_trials": num_trials,
        "channel": channel.value,
        "required_rates": dict(curve.required_rates),
        "mean_loss_db": {name: sweep.mean_loss(name) for name in sweep.schemes()},
    }
    table = render_cost_efficiency(curve, title)
    return ExperimentResult(
        experiment_id=experiment_id, title=title, data=data, table=table
    )

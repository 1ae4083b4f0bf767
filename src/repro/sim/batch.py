"""The trial engine: every trial runs in a block of stacked array programs.

:func:`run_trial_block` is the one trial body. A block draws all of its
channel realizations through the stacked steering/coupling GEMMs of
:mod:`repro.channel.batch` and evaluates every trial's ground-truth SNR
matrix in one shot (:func:`draw_block`, shared with the cell's per-UE
executor), then runs the scheme loop per trial against the primed
couplings (so per-measurement work is fused ``measure_many`` blocks over
cached tables). A block runs at one or more search rates: each scheme
runs once per trial at the largest budget and settles the smaller ones
on the way (:class:`~repro.core.base.BudgetLadder`).
:func:`run_trial_blocks` cuts a run of trials into blocks;
``run_trials`` and campaign shards run one rate through it, effectiveness
sweeps every rate, and a block size of ``None`` means one trial per
block.

Determinism: trial ``k`` uses ``trial_generator(base_seed, k)`` in any
block, each trial spawns its child streams identically, and every
stacked kernel is per-slice bit-identical to its per-channel reference
— seeded outcomes are bit-identical for any block size (pinned by
``tests/test_batch_engine.py`` and ``tests/test_pinned_digests.py``)
and for any set of rates run together (``tests/test_sim_ladder.py``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.channel.base import ClusteredChannel
from repro.channel.batch import mean_snr_matrices
from repro.exceptions import ConfigurationError
from repro.obs import get_recorder
from repro.sim.runner import (
    AlgorithmFactory,
    TrialOutcome,
    _checkpoint_trial_setup,
    _execute_schemes,
    _rates_by_limit,
    _stream_labels,
)
from repro.sim.scenario import Scenario
from repro.utils.rng import labeled_spawn, trial_generator

__all__ = [
    "check_block_size",
    "draw_block",
    "run_trial_block",
    "run_trial_blocks",
]


def check_block_size(
    block_size: Optional[int], name: str = "batch_trials", minimum: int = 1
) -> int:
    """Items per block: ``None`` (and ``0`` where ``minimum`` allows it)
    means one; anything below ``minimum`` is rejected."""
    if block_size is not None and block_size < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {block_size}")
    return block_size or 1


def draw_block(
    scenario: Scenario,
    rngs: Sequence[np.random.Generator],
    labels: Sequence[str],
) -> List[Tuple[Dict[str, np.random.Generator], ClusteredChannel, np.ndarray]]:
    """Set up one block: ``(streams, channel, snr_matrix)`` per generator.

    Each generator spawns its ``labels`` streams; every item's channel is
    drawn from its ``"channel"`` stream in one stacked pass, and one more
    stacked pass evaluates every ground truth and primes every channel's
    codebook-coupling table for the measurement fusion.
    """
    shared = scenario.context()
    streams = [labeled_spawn(rng, labels) for rng in rngs]
    channels = scenario.sample_channel_batch([item["channel"] for item in streams])
    snr_matrices = mean_snr_matrices(channels, shared.tx_codebook, shared.rx_codebook)
    return list(zip(streams, channels, snr_matrices))


def run_trial_block(
    scenario: Scenario,
    schemes: Mapping[str, AlgorithmFactory],
    search_rates: Sequence[float],
    rngs: Sequence[np.random.Generator],
    trial_indices: Optional[Sequence[Optional[int]]] = None,
) -> List[List[Dict[str, TrialOutcome]]]:
    """Run one block of trials at every search rate of ``search_rates``.

    Returns, per trial in ``rngs`` order, the scheme outcomes at each
    rate in ``search_rates`` order. Every trial draws one channel for all
    rates, and each scheme runs once per trial against the largest
    budget, settling the smaller ones on the way
    (:meth:`~repro.core.base.BeamAlignmentAlgorithm.align_ladder`); each
    rate's outcomes are what a run at that rate alone returns.

    ``rngs`` carries one per-trial generator (as produced by
    ``trial_generator``); each trial's outcomes depend on its generator
    alone, never on the block around it. ``trial_indices`` (same length
    as ``rngs``, when given) scopes flight-recorder checkpoints to each
    trial's global index; per-trial digests are extracted from the
    stacked arrays inside the per-trial loop, so each (rate, trial)
    records the same event sequence for any block size and any set of
    rates run beside it.
    """
    if not schemes:
        raise ConfigurationError("run_trial_block needs at least one scheme")
    rates = [float(rate) for rate in search_rates]
    if not rates:
        raise ConfigurationError("run_trial_block needs at least one search rate")
    rngs = list(rngs)
    if not rngs:
        return []
    if trial_indices is not None and len(trial_indices) != len(rngs):
        raise ConfigurationError(
            f"trial_indices has {len(trial_indices)} entries for {len(rngs)} rngs"
        )
    indices = list(trial_indices) if trial_indices is not None else [None] * len(rngs)
    recorder = get_recorder()
    shared = scenario.context()
    rates_by_limit = _rates_by_limit(shared, rates)
    distinct = [rate for grouped in rates_by_limit.values() for rate in grouped]
    block = draw_block(scenario, rngs, _stream_labels(schemes))
    if recorder.enabled:
        recorder.increment("batch.blocks")
        recorder.increment("batch.trials", len(rngs))
    outcomes: List[List[Dict[str, TrialOutcome]]] = []
    for index, (streams, channel, snr_matrix) in zip(indices, block):
        with recorder.trial_scope(index), recorder.rate_scope(distinct):
            with recorder.span("trial", search_rates=rates) as trial_span:
                if recorder.checkpoints_enabled:
                    _checkpoint_trial_setup(recorder, channel, snr_matrix)
                by_rate = _execute_schemes(
                    scenario,
                    shared,
                    channel,
                    snr_matrix,
                    schemes,
                    list(streams.values())[1:],
                    rates_by_limit,
                    recorder,
                )
                trial_span.annotate(schemes=list(schemes))
        outcomes.append([by_rate[rate] for rate in rates])
    return outcomes


def run_trial_blocks(
    scenario: Scenario,
    schemes: Mapping[str, AlgorithmFactory],
    search_rates: Sequence[float],
    base_seed: int,
    trials: Sequence[int],
    batch_trials: Optional[int] = None,
) -> Iterator[List[Dict[str, TrialOutcome]]]:
    """Yield the outcomes of ``trials`` (global indices) in order, run in
    blocks of ``batch_trials`` (``None``: one trial per block); each
    trial's entry holds its scheme outcomes per rate of ``search_rates``.

    Trial ``k`` draws from ``trial_generator(base_seed, k)``, so the
    outcomes are the same for any block size; the last block may be
    partial.
    """
    size = check_block_size(batch_trials)
    for start in range(0, len(trials), size):
        chunk = trials[start : start + size]
        rngs = [trial_generator(base_seed, trial) for trial in chunk]
        yield from run_trial_block(scenario, schemes, search_rates, rngs, chunk)

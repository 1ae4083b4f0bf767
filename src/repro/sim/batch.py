"""Batched trial engine: B trials as stacked array programs.

:func:`run_trials_batched` is a drop-in alternative to
:func:`repro.sim.runner.run_trials` that executes trials in blocks: each
block draws all of its channel realizations through the stacked
steering/coupling GEMMs of :mod:`repro.channel.batch` and evaluates
every trial's ground-truth SNR matrix in one shot, then runs the scheme
loop per trial against the primed couplings (so per-measurement work is
fused ``measure_many`` blocks over cached tables).

Determinism: trial ``k`` uses ``trial_generator(base_seed, k)`` exactly
like the serial runner, each trial spawns its child streams identically,
and every stacked kernel is per-slice bit-identical to its serial
counterpart — seeded outcomes are bit-identical to ``run_trials`` for
any batch size (pinned by ``tests/test_batch_engine.py``).

Composition: ``run_trials_parallel(..., batch_trials=B)`` runs process
workers that each execute their trial chunks through
:func:`run_trial_block` — processes x in-process batches.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.channel.batch import mean_snr_matrices
from repro.exceptions import ConfigurationError
from repro.obs import ProgressCallback, ProgressReporter, get_logger, get_recorder
from repro.sim.runner import (
    AlgorithmFactory,
    TrialOutcome,
    _checkpoint_trial_setup,
    _execute_schemes,
)
from repro.sim.scenario import Scenario
from repro.utils.rng import spawn, trial_generator

__all__ = ["DEFAULT_BATCH_TRIALS", "run_trial_block", "run_trials_batched"]

logger = get_logger("sim.batch")

#: Default in-process batch size: large enough to amortize the stacked
#: GEMM/eigh dispatch, small enough to keep the stacked buffers cache
#: resident for the paper-scale codebooks.
DEFAULT_BATCH_TRIALS = 32


def run_trial_block(
    scenario: Scenario,
    schemes: Mapping[str, AlgorithmFactory],
    search_rate: float,
    rngs: Sequence[np.random.Generator],
    trial_indices: Optional[Sequence[int]] = None,
) -> List[Dict[str, TrialOutcome]]:
    """Run one block of trials with batched channel/ground-truth setup.

    ``rngs`` carries one per-trial generator (as produced by
    ``trial_generator``); outcomes come back in the same order and are
    bit-identical to calling :func:`repro.sim.runner.run_trial` with each
    generator serially. ``trial_indices`` (same length as ``rngs``, when
    given) scopes flight-recorder checkpoints to each trial's global
    index; per-trial digests are extracted from the stacked arrays inside
    the per-trial loop, so the emitted event sequence is identical to the
    serial runner's.
    """
    if not schemes:
        raise ConfigurationError("run_trial_block needs at least one scheme")
    rngs = list(rngs)
    if not rngs:
        return []
    if trial_indices is not None and len(trial_indices) != len(rngs):
        raise ConfigurationError(
            f"trial_indices has {len(trial_indices)} entries for {len(rngs)} rngs"
        )
    indices: List[Optional[int]] = (
        list(trial_indices) if trial_indices is not None else [None] * len(rngs)
    )
    recorder = get_recorder()
    shared = scenario.context()
    spawned = [spawn(rng, 1 + 2 * len(schemes)) for rng in rngs]
    channels = scenario.sample_channel_batch([streams[0] for streams in spawned])
    # One stacked pass evaluates every trial's ground truth and primes
    # every channel's codebook-coupling table for the measurement fusion.
    snr_matrices = mean_snr_matrices(channels, shared.tx_codebook, shared.rx_codebook)
    if recorder.enabled:
        recorder.increment("batch.blocks")
        recorder.increment("batch.trials", len(rngs))
    outcomes: List[Dict[str, TrialOutcome]] = []
    for index, streams, channel, snr_matrix in zip(indices, spawned, channels, snr_matrices):
        with recorder.trial_scope(index, search_rate):
            with recorder.span("trial", search_rate=search_rate) as trial_span:
                if recorder.checkpoints_enabled:
                    _checkpoint_trial_setup(recorder, channel, snr_matrix)
                trial_outcomes = _execute_schemes(
                    scenario,
                    shared,
                    channel,
                    snr_matrix,
                    schemes,
                    streams[1:],
                    search_rate,
                    recorder,
                )
                trial_span.annotate(schemes=list(trial_outcomes))
        outcomes.append(trial_outcomes)
    return outcomes


def run_trials_batched(
    scenario: Scenario,
    schemes: Mapping[str, AlgorithmFactory],
    search_rate: float,
    num_trials: int,
    base_seed: int = 0,
    batch_size: int = DEFAULT_BATCH_TRIALS,
    progress: Optional[ProgressCallback] = None,
) -> List[Dict[str, TrialOutcome]]:
    """Batched drop-in for :func:`repro.sim.runner.run_trials`.

    Same per-trial seeding contract (trial ``k`` sees the same channel
    for a given ``base_seed`` no matter the batch size); the final,
    possibly partial block simply stacks fewer trials.
    """
    if num_trials < 1:
        raise ConfigurationError(f"num_trials must be >= 1, got {num_trials}")
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    recorder = get_recorder()
    reporter = ProgressReporter(num_trials, progress, label="trials")
    logger.debug(
        "run_trials_batched: %d trials at rate %.3f (seed %d, batch %d)",
        num_trials,
        search_rate,
        base_seed,
        batch_size,
    )
    outcomes: List[Dict[str, TrialOutcome]] = []
    with recorder.span(
        "run_trials_batched",
        num_trials=num_trials,
        search_rate=search_rate,
        base_seed=base_seed,
        batch_size=batch_size,
    ):
        for start in range(0, num_trials, batch_size):
            trials = list(range(start, min(start + batch_size, num_trials)))
            rngs = [trial_generator(base_seed, trial) for trial in trials]
            for trial_outcomes in run_trial_block(
                scenario, schemes, search_rate, rngs, trial_indices=trials
            ):
                outcomes.append(trial_outcomes)
                reporter.update()
    return outcomes

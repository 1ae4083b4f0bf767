"""Process-parallel trial execution.

Figure sweeps are embarrassingly parallel across trials (each trial is an
independent channel draw), but the scheme factories used by
:func:`repro.sim.runner.run_trial` are closures and do not pickle. This
module provides a picklable indirection: a :class:`SchemeSpec` names a
registered scheme plus its constructor keyword arguments, workers rebuild
the scenario and schemes from specs, and results come back as light
:class:`ParallelOutcome` records (no measurement traces across process
boundaries).

Determinism: trial ``k`` uses exactly the same per-trial generator as the
serial runner, so ``run_trials_parallel`` reproduces
:func:`repro.sim.runner.run_trials` outcome-for-outcome regardless of the
worker count.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.baselines.digital_rx import DigitalRxSearch
from repro.baselines.genie import GenieAligner
from repro.baselines.hierarchical_search import HierarchicalSearch
from repro.baselines.local_refine import LocalRefineSearch
from repro.baselines.random_search import RandomSearch
from repro.baselines.scan_search import ScanSearch
from repro.baselines.ucb import UcbSearch
from repro.core.bidirectional import BidirectionalAlignment
from repro.core.proposed import ProposedAlignment
from repro.exceptions import ConfigurationError
from repro.obs import (
    MetricsRecorder,
    ProgressCallback,
    ProgressReporter,
    get_logger,
    get_recorder,
    use_recorder,
)
from repro.obs.checkpoint import CheckpointSpec, find_checkpointer
from repro.sim.batch import run_trial_block
from repro.sim.config import ScenarioConfig
from repro.sim.runner import TrialOutcome, run_trial
from repro.sim.scenario import Scenario
from repro.types import BeamPair
from repro.utils.rng import trial_generator

__all__ = ["SchemeSpec", "ParallelOutcome", "run_trials_parallel", "SCHEME_BUILDERS"]

logger = get_logger("sim.parallel")

#: Scheme name -> constructor. Every entry must be constructible from
#: keyword arguments alone; the genie additionally receives the channel.
SCHEME_BUILDERS = {
    "Random": RandomSearch,
    "Scan": ScanSearch,
    "Proposed": ProposedAlignment,
    "Bidirectional": BidirectionalAlignment,
    "Hierarchical": HierarchicalSearch,
    "LocalRefine": LocalRefineSearch,
    "UCB": UcbSearch,
    "DigitalRx": DigitalRxSearch,
    "Genie": GenieAligner,
}


@dataclass(frozen=True)
class SchemeSpec:
    """A picklable scheme description: registered name + kwargs."""

    name: str
    params: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def of(cls, name: str, **params: object) -> "SchemeSpec":
        """Convenience constructor: ``SchemeSpec.of("Proposed", mu=0.1)``."""
        if name not in SCHEME_BUILDERS:
            known = ", ".join(sorted(SCHEME_BUILDERS))
            raise ConfigurationError(f"unknown scheme {name!r}; known: {known}")
        return cls(name=name, params=tuple(sorted(params.items())))

    def build_factory(self):
        """The channel-aware factory the serial runner expects."""
        builder = SCHEME_BUILDERS[self.name]
        kwargs = dict(self.params)
        if self.name == "Genie":
            return lambda channel: builder(channel, **kwargs)
        return lambda channel: builder(**kwargs)


@dataclass(frozen=True)
class ParallelOutcome:
    """Cross-process-safe summary of one scheme's trial outcome."""

    algorithm: str
    loss_db: float
    measurements_used: int
    selected: BeamPair
    optimal_snr: float


def _to_parallel(outcomes: Dict[str, TrialOutcome]) -> Dict[str, ParallelOutcome]:
    """Strip one trial's outcomes down to their cross-process summary."""
    return {
        name: ParallelOutcome(
            algorithm=name,
            loss_db=outcome.loss_db,
            measurements_used=outcome.result.measurements_used,
            selected=outcome.result.selected,
            optimal_snr=outcome.evaluation.optimal_snr,
        )
        for name, outcome in outcomes.items()
    }


@functools.lru_cache(maxsize=8)
def _scenario_for(config: ScenarioConfig) -> Scenario:
    """Per-process scenario cache (codebooks are immutable)."""
    scenario = Scenario(config)
    scenario.context()  # precompute the shared pair table once per process
    return scenario


def _worker_init(config: ScenarioConfig) -> None:
    """Pool initializer: build the scenario context before any task runs.

    Codebook construction is the dominant per-process setup cost; doing
    it in the initializer moves it off the first task's critical path and
    guarantees every task — batched or not — hits a warm cache.
    """
    _scenario_for(config)


def _worker_aux(
    inner: Optional[MetricsRecorder], checkpointer: Optional[Any]
) -> Optional[Dict[str, Any]]:
    """Package a worker's observability state for the trip home.

    ``None`` when nothing was collected; otherwise a dict with the
    metrics snapshot and/or the checkpoint event payloads, so one return
    slot carries both without widening the tuple the tests unpack.
    """
    if inner is None and checkpointer is None:
        return None
    return {
        "metrics": inner.metrics.snapshot() if inner is not None else None,
        "checkpoints": checkpointer.payload() if checkpointer is not None else None,
    }


def _run_one_trial(
    config: ScenarioConfig,
    specs: Tuple[SchemeSpec, ...],
    search_rate: float,
    base_seed: int,
    trial_index: int,
    collect_metrics: bool = False,
    checkpoints: Optional[CheckpointSpec] = None,
) -> Tuple[Dict[str, ParallelOutcome], Optional[Dict[str, Any]]]:
    """Worker entry point: one full trial, all schemes.

    With ``collect_metrics`` the trial runs under a worker-local
    :class:`~repro.obs.MetricsRecorder` and the registry snapshot rides
    back across the process boundary for the parent to merge; with
    ``checkpoints`` a worker-local flight recorder digests every stage
    and the event payloads ride back the same way. Recorders never touch
    RNG streams, so outcomes are identical either way.
    """
    scenario = _scenario_for(config)
    schemes = {spec.name: spec.build_factory() for spec in specs}
    inner = MetricsRecorder() if collect_metrics else None
    checkpointer = checkpoints.build(inner) if checkpoints is not None else None
    active = checkpointer if checkpointer is not None else inner
    if active is not None:
        with use_recorder(active):
            outcomes = run_trial(
                scenario,
                schemes,
                search_rate,
                trial_generator(base_seed, trial_index),
                trial_index=trial_index,
            )
    else:
        outcomes = run_trial(
            scenario,
            schemes,
            search_rate,
            trial_generator(base_seed, trial_index),
            trial_index=trial_index,
        )
    return _to_parallel(outcomes), _worker_aux(inner, checkpointer)


def _run_trial_batch(
    config: ScenarioConfig,
    specs: Tuple[SchemeSpec, ...],
    search_rate: float,
    base_seed: int,
    trial_indices: Tuple[int, ...],
    collect_metrics: bool = False,
    batch_trials: Optional[int] = None,
    checkpoints: Optional[CheckpointSpec] = None,
) -> Tuple[List[Dict[str, ParallelOutcome]], Optional[Dict[str, Any]]]:
    """Worker entry point: several trials amortizing one task dispatch.

    Batching cuts the per-task pickling/dispatch overhead (config, specs,
    and results cross the process boundary once per batch instead of once
    per trial) while determinism is untouched: trial ``k`` still draws
    from ``trial_generator(base_seed, k)`` no matter which batch — or
    process — it lands in. Metrics snapshots and flight-recorder
    checkpoint payloads are likewise merged once per batch.

    ``batch_trials`` additionally routes the worker's trials through the
    in-process batched engine (:func:`repro.sim.batch.run_trial_block`)
    in blocks of that size — processes x stacked-array batches, still
    outcome-identical to the serial runner.
    """
    scenario = _scenario_for(config)
    schemes = {spec.name: spec.build_factory() for spec in specs}
    batch_results: List[Dict[str, ParallelOutcome]] = []

    def _run_all() -> None:
        if batch_trials is not None:
            for start in range(0, len(trial_indices), batch_trials):
                chunk = trial_indices[start : start + batch_trials]
                rngs = [trial_generator(base_seed, trial) for trial in chunk]
                for outcomes in run_trial_block(
                    scenario, schemes, search_rate, rngs, trial_indices=chunk
                ):
                    batch_results.append(_to_parallel(outcomes))
            return
        for trial_index in trial_indices:
            outcomes = run_trial(
                scenario,
                schemes,
                search_rate,
                trial_generator(base_seed, trial_index),
                trial_index=trial_index,
            )
            batch_results.append(_to_parallel(outcomes))

    inner = MetricsRecorder() if collect_metrics else None
    checkpointer = checkpoints.build(inner) if checkpoints is not None else None
    active = checkpointer if checkpointer is not None else inner
    if active is not None:
        with use_recorder(active):
            _run_all()
    else:
        _run_all()
    return batch_results, _worker_aux(inner, checkpointer)


def _auto_batch_size(num_trials: int, max_workers: Optional[int]) -> int:
    """Batch size balancing dispatch overhead against load balancing.

    Aim for roughly four batches per worker so a straggler batch cannot
    idle the pool for long, while still amortizing dispatch across
    multiple trials. Clamped to [1, 32].
    """
    workers = max_workers or os.cpu_count() or 1
    return max(1, min(32, math.ceil(num_trials / (4 * workers))))


def run_trials_parallel(
    config: ScenarioConfig,
    specs: Sequence[SchemeSpec],
    search_rate: float,
    num_trials: int,
    base_seed: int = 0,
    max_workers: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    batch_size: Optional[int] = None,
    batch_trials: Optional[int] = None,
) -> List[Dict[str, ParallelOutcome]]:
    """Run ``num_trials`` independent trials across worker processes.

    With ``max_workers=1`` (or in environments where process pools are
    unavailable) the trials run in the current process through the same
    code path, so results are identical either way.

    Trials are dispatched in contiguous batches (``batch_size``, default
    auto-sized to about four batches per worker) so pickling and task
    dispatch are paid per batch, not per trial; the pool initializer
    pre-builds the shared scenario context in every worker. Trial ``k``
    always draws from ``trial_generator(base_seed, k)``, so outcomes are
    identical for every worker count and batch size.

    When an enabled recorder is active in the parent, each worker collects
    a local metrics registry and the snapshots are merged into the
    parent's registry as batches complete, so solver iteration counts and
    span timings survive the process boundary. ``progress`` receives
    throttled completion/ETA updates.

    ``batch_trials`` turns on the in-process batched trial engine inside
    every worker (:mod:`repro.sim.batch`): each worker executes its trial
    chunks as stacked array programs in blocks of ``batch_trials`` —
    processes x batches compose, and seeded outcomes stay bit-identical.
    """
    if num_trials < 1:
        raise ConfigurationError(f"num_trials must be >= 1, got {num_trials}")
    if not specs:
        raise ConfigurationError("need at least one scheme spec")
    specs = tuple(specs)
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate scheme names in specs: {names}")
    if batch_size is not None and batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    if batch_trials is not None and batch_trials < 1:
        raise ConfigurationError(f"batch_trials must be >= 1, got {batch_trials}")

    recorder = get_recorder()
    reporter = ProgressReporter(num_trials, progress, label="trials")
    collect = recorder.enabled and recorder.metrics is not None
    # When the parent runs under a flight recorder, ship its (picklable)
    # configuration to every worker and absorb the recorded events back
    # in submission order — the merged sequence is identical to a serial
    # run's because each event is keyed by (rate, trial, seq), never by
    # worker arrival time.
    parent_checkpointer = find_checkpointer(recorder)
    checkpoint_spec = (
        parent_checkpointer.spec_for_workers() if parent_checkpointer is not None else None
    )

    if max_workers == 1:
        # In-process: the parent's recorder is already active, so spans and
        # events stream to it directly (no snapshot indirection needed).
        results = []
        with recorder.span(
            "run_trials_parallel", num_trials=num_trials, workers=1, search_rate=search_rate
        ):
            if batch_trials is not None:
                for start in range(0, num_trials, batch_trials):
                    chunk = tuple(range(start, min(start + batch_trials, num_trials)))
                    batch_outcomes, _ = _run_trial_batch(
                        config,
                        specs,
                        search_rate,
                        base_seed,
                        chunk,
                        False,
                        batch_trials,
                    )
                    results.extend(batch_outcomes)
                    for _ in batch_outcomes:
                        reporter.update()
            else:
                for trial in range(num_trials):
                    outcomes, _ = _run_one_trial(
                        config, specs, search_rate, base_seed, trial
                    )
                    results.append(outcomes)
                    reporter.update()
        return results

    size = batch_size if batch_size is not None else _auto_batch_size(
        num_trials, max_workers
    )
    batches = [
        tuple(range(start, min(start + size, num_trials)))
        for start in range(0, num_trials, size)
    ]
    logger.debug(
        "run_trials_parallel: %d trials in %d batches of <=%d, max_workers=%s,"
        " collect_metrics=%s",
        num_trials,
        len(batches),
        size,
        max_workers,
        collect,
    )
    with recorder.span(
        "run_trials_parallel",
        num_trials=num_trials,
        workers=max_workers or 0,
        batch_size=size,
        search_rate=search_rate,
    ) as span:
        with ProcessPoolExecutor(
            max_workers=max_workers, initializer=_worker_init, initargs=(config,)
        ) as pool:
            futures = [
                pool.submit(
                    _run_trial_batch,
                    config,
                    specs,
                    search_rate,
                    base_seed,
                    batch,
                    collect,
                    batch_trials,
                    checkpoint_spec,
                )
                for batch in batches
            ]
            results = []
            for batch_index, future in enumerate(futures):
                try:
                    batch_outcomes, aux = future.result()
                except BrokenProcessPool as error:
                    # A worker died hard (os._exit, OOM kill, segfault).
                    # The pool is unrecoverable, but the batch is not:
                    # per-trial seeding makes re-running it in-process
                    # bit-identical to what the worker would have sent.
                    logger.warning(
                        "worker pool broke on batch %d (%s); re-running batch"
                        " in-process",
                        batch_index,
                        error,
                    )
                    recorder.event(
                        "parallel.pool_broken", batch=batch_index, error=str(error)
                    )
                    batch_outcomes, aux = _run_trial_batch(
                        config,
                        specs,
                        search_rate,
                        base_seed,
                        batches[batch_index],
                        collect,
                        batch_trials,
                        checkpoint_spec,
                    )
                results.extend(batch_outcomes)
                snapshot = aux.get("metrics") if aux else None
                if collect and snapshot:
                    recorder.metrics.merge_snapshot(snapshot)
                    recorder.event("parallel.batch_merged", batch=batch_index)
                worker_events = aux.get("checkpoints") if aux else None
                if parent_checkpointer is not None and worker_events:
                    parent_checkpointer.absorb(worker_events)
                for _ in batch_outcomes:
                    reporter.update()
        span.annotate(merged_metrics=collect, num_batches=len(batches))
    return results

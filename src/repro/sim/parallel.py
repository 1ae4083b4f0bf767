"""Picklable scheme specs and the shard-batch entry point.

The scheme factories used by :func:`repro.sim.runner.run_trial` are
closures and do not pickle. A :class:`SchemeSpec` names a registered
scheme plus its constructor keyword arguments, so a plan can carry its
schemes across process boundaries and into content addresses.

:func:`_run_trial_batch` runs a contiguous block of trials from specs and
returns light :class:`ParallelOutcome` records (no measurement traces).
It is the one trial executor behind campaign shards — run by the lease
loop in-process or in launched worker processes — and behind
:mod:`repro.obs.diff` replays.

Determinism: trial ``k`` uses exactly the same per-trial generator as
:func:`repro.sim.runner.run_trials`, so a batch reproduces it
outcome-for-outcome no matter which process runs it.
"""

from __future__ import annotations

import functools
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

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
from repro.obs import MetricsRecorder, use_recorder
from repro.obs.checkpoint import CheckpointSpec
from repro.sim.batch import run_trial_blocks
from repro.sim.config import ScenarioConfig
# run_trial is no longer called here; perfbench's tracer test still looks
# it up on this module to check that every binding gets wrapped.
from repro.sim.runner import TrialOutcome, run_trial  # noqa: F401
from repro.sim.scenario import Scenario
from repro.types import BeamPair

__all__ = ["SchemeSpec", "ParallelOutcome", "SCHEME_BUILDERS"]

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
        """The channel-aware factory the trial runner expects."""
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
    """Run one block of trials (a campaign shard) from picklable specs.

    Determinism: trial ``k`` draws from ``trial_generator(base_seed, k)``
    no matter which block — or process — it lands in. With
    ``collect_metrics`` or ``checkpoints`` the block runs under its own
    recorder, whose metrics snapshot and flight-recorder checkpoint
    payloads come back once per block for the caller to merge.

    ``batch_trials`` trials share one stacked channel block (``None``: one
    trial per block) — still outcome-identical for any block size.
    """
    scenario = _scenario_for(config)
    schemes = {spec.name: spec.build_factory() for spec in specs}
    inner = MetricsRecorder() if collect_metrics else None
    checkpointer = checkpoints.build(inner) if checkpoints is not None else None
    active = checkpointer if checkpointer is not None else inner
    with use_recorder(active) if active is not None else nullcontext():
        batch_results = [
            _to_parallel(outcomes)
            for outcomes in run_trial_blocks(
                scenario, schemes, search_rate, base_seed, trial_indices, batch_trials
            )
        ]
    return batch_results, _worker_aux(inner, checkpointer)

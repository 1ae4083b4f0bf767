"""Trial runner: one channel draw, several schemes, one budget per rate.

Fairness rules baked in:

* every scheme in a trial faces the *same* channel realization (same
  geometry, same mean-SNR matrix, hence the same optimum);
* every scheme gets its own independent measurement-noise/fading RNG
  stream (spawned children), so no scheme's draws perturb another's;
* every scheme pays through an identical measurement budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.baselines.random_search import RandomSearch
from repro.baselines.scan_search import ScanSearch
from repro.channel.base import ClusteredChannel
from repro.core.base import AlignmentContext, BeamAlignmentAlgorithm, BudgetLadder
from repro.core.proposed import ProposedAlignment
from repro.core.result import AlignmentResult
from repro.exceptions import ConfigurationError
from repro.measurement.budget import MeasurementBudget
from repro.measurement.measurer import MeasurementEngine
from repro.obs import ProgressCallback, ProgressReporter, get_logger, get_recorder
from repro.sim.metrics import PairEvaluation, evaluate_pair
from repro.sim.scenario import Scenario

__all__ = ["AlgorithmFactory", "TrialOutcome", "standard_schemes", "run_trial", "run_trials"]

logger = get_logger("sim.runner")

#: Builds a scheme instance for a given channel realization. Most schemes
#: ignore the channel; the genie upper bound needs it.
AlgorithmFactory = Callable[[ClusteredChannel], BeamAlignmentAlgorithm]


@dataclass(frozen=True)
class TrialOutcome:
    """One scheme's outcome in one trial, evaluated against ground truth."""

    algorithm: str
    result: AlignmentResult
    evaluation: PairEvaluation

    @property
    def loss_db(self) -> float:
        """SNR loss of the selected pair (Eq. 31, non-negative)."""
        return self.evaluation.loss_db

    @property
    def search_rate(self) -> float:
        """Consumed search rate (Eq. 32)."""
        return self.result.search_rate


def standard_schemes(
    measurements_per_slot: int = 8,
) -> Dict[str, AlgorithmFactory]:
    """The paper's three compared schemes: Random, Scan, Proposed."""
    return {
        "Random": lambda channel: RandomSearch(),
        "Scan": lambda channel: ScanSearch(),
        "Proposed": lambda channel: ProposedAlignment(
            measurements_per_slot=measurements_per_slot
        ),
    }


def _stream_labels(schemes: Mapping[str, AlgorithmFactory]) -> List[str]:
    """RNG stream labels for one trial: channel, then per-scheme pairs.

    Order matches the historical ``spawn(rng, 1 + 2 * len(schemes))``
    layout exactly, so labeling the streams changes no draw.
    """
    labels = ["channel"]
    for name in schemes:
        labels.append(f"{name}.measurement")
        labels.append(f"{name}.algorithm")
    return labels


def _checkpoint_trial_setup(recorder, channel: ClusteredChannel, snr_matrix: np.ndarray) -> None:
    """Flight-recorder digests for a trial's channel draw and gain table."""
    recorder.checkpoint(
        "channel.draw",
        {
            "powers": channel.powers,
            "tx_steering": channel.tx_steering,
            "rx_steering": channel.rx_steering,
        },
        stream="channel",
    )
    tx, rx = np.unravel_index(int(np.argmax(snr_matrix)), snr_matrix.shape)
    recorder.checkpoint(
        "channel.gain_table",
        {"snr": snr_matrix},
        optimal_tx=int(tx),
        optimal_rx=int(rx),
        optimal_snr=float(snr_matrix[tx, rx]),
    )


def _checkpoint_beam_selection(
    recorder, name: str, result: AlignmentResult, snr_matrix: np.ndarray
) -> None:
    """Digest one scheme's final selection; the probe table rides along
    as attrs so ``repro inspect`` can storyboard the decision."""
    probes = []
    for measurement in result.trace:
        pair = measurement.pair
        probes.append(
            {
                "tx": pair.tx_index if pair is not None else None,
                "rx": pair.rx_index if pair is not None else None,
                "slot": measurement.slot,
                "power": measurement.power,
                "true_snr": (
                    float(snr_matrix[pair.tx_index, pair.rx_index])
                    if pair is not None
                    else None
                ),
            }
        )
    recorder.checkpoint(
        "beam.selection",
        {
            "selected": np.array(
                [result.selected.tx_index, result.selected.rx_index], dtype=np.int64
            ),
            "power": np.array([result.selected_power], dtype=float),
        },
        stream=f"{name}.algorithm",
        measurements=result.measurements_used,
        selected_tx=result.selected.tx_index,
        selected_rx=result.selected.rx_index,
        selected_power=float(result.selected_power),
        probes=probes,
    )


def _rates_by_limit(shared, rates: Sequence[float]) -> Dict[int, List[float]]:
    """The distinct ``rates`` grouped by their measurement budget."""
    grouped: Dict[int, List[float]] = {}
    for rate in dict.fromkeys(rates):
        grouped.setdefault(shared.make_budget(rate).limit, []).append(rate)
    return grouped


def _execute_schemes(
    scenario: Scenario,
    shared,
    channel: ClusteredChannel,
    snr_matrix: np.ndarray,
    schemes: Mapping[str, AlgorithmFactory],
    scheme_rngs: List[np.random.Generator],
    rates_by_limit: Mapping[int, List[float]],
    recorder,
) -> Dict[float, Dict[str, TrialOutcome]]:
    """Run every scheme against one channel realization at every rate
    (the scheme loop of :func:`repro.sim.batch.run_trial_block`).

    Each scheme aligns once at the largest budget and settles the
    smaller ones through a :class:`~repro.core.base.BudgetLadder`;
    the outcomes come back per rate, each what a run at that rate alone
    returns.
    """
    top = max(rates_by_limit)
    outcomes: Dict[float, Dict[str, TrialOutcome]] = {
        rate: {} for rates in rates_by_limit.values() for rate in rates
    }
    for index, (name, factory) in enumerate(schemes.items()):
        engine_rng = scheme_rngs[2 * index]
        algo_rng = scheme_rngs[2 * index + 1]
        engine = MeasurementEngine(
            channel, engine_rng, fading_blocks=scenario.config.fading_blocks
        )
        context = AlignmentContext(
            shared.tx_codebook,
            shared.rx_codebook,
            engine,
            MeasurementBudget(shared.total_pairs, top),
            stream=f"{name}.measurement",
        )
        ladder = BudgetLadder(
            {limit: rates for limit, rates in rates_by_limit.items() if limit < top},
            rates_by_limit[top],
        )
        algorithm = factory(channel)
        with recorder.scheme_scope(name), recorder.span(f"scheme.{name}") as scheme_span:
            with recorder.rate_scope(ladder.sharing):
                results = {top: algorithm.align_ladder(context, algo_rng, ladder)}
            results.update(ladder.results)
            for limit, rates in rates_by_limit.items():
                result = results[limit]
                outcome = TrialOutcome(
                    algorithm=name,
                    result=result,
                    evaluation=evaluate_pair(snr_matrix, result.selected),
                )
                if recorder.checkpoints_enabled:
                    with recorder.rate_scope(rates):
                        _checkpoint_beam_selection(recorder, name, result, snr_matrix)
                for rate in rates:
                    outcomes[rate][name] = outcome
            runs = [by_scheme[name] for by_scheme in outcomes.values()]
            scheme_span.annotate(
                loss_db=[run.loss_db for run in runs],
                measurements=[run.result.measurements_used for run in runs],
                search_rate=[run.search_rate for run in runs],
            )
        if recorder.enabled:
            for run in runs:
                recorder.increment(f"scheme.{name}.measurements", run.result.measurements_used)
                recorder.increment(f"scheme.{name}.trials")
    if recorder.checkpoints_enabled:
        for rates in rates_by_limit.values():
            losses = outcomes[rates[0]]
            with recorder.rate_scope(rates):
                recorder.checkpoint(
                    "trial.metrics",
                    {"loss_db": np.array([losses[name].loss_db for name in losses])},
                    schemes=list(losses),
                    losses={name: float(losses[name].loss_db) for name in losses},
                )
    return outcomes


def run_trial(
    scenario: Scenario,
    schemes: Mapping[str, AlgorithmFactory],
    search_rate: float,
    rng: np.random.Generator,
    trial_index: Optional[int] = None,
) -> Dict[str, TrialOutcome]:
    """One channel draw; every scheme aligns under the same budget.

    A block of one trial (:func:`repro.sim.batch.run_trial_block`).
    ``trial_index`` scopes flight-recorder checkpoints (it never affects
    the computation); callers that know the trial's global index pass it
    so digests from different runs compare at the same key.
    """
    # Imported here: repro.sim.batch imports this module's scheme loop.
    from repro.sim.batch import run_trial_block

    return run_trial_block(scenario, schemes, [search_rate], [rng], [trial_index])[0][0]


def run_trials(
    scenario: Scenario,
    schemes: Mapping[str, AlgorithmFactory],
    search_rate: float,
    num_trials: int,
    base_seed: int = 0,
    progress: Optional[ProgressCallback] = None,
    batch_trials: Optional[int] = None,
) -> List[Dict[str, TrialOutcome]]:
    """Independent trials with per-trial deterministic seeding.

    Trial ``k`` always sees the same channel for a given ``base_seed``
    regardless of how many other trials run or how they are blocked —
    experiments are resumable and individually reproducible.
    ``batch_trials`` trials share one stacked channel block (``None``:
    one trial per block). ``progress``, if given, receives throttled
    :class:`~repro.obs.ProgressEvent` updates with an ETA; progress
    reporting never touches the trial RNG streams.
    """
    from repro.sim.batch import run_trial_blocks

    if num_trials < 1:
        raise ConfigurationError(f"num_trials must be >= 1, got {num_trials}")
    recorder = get_recorder()
    reporter = ProgressReporter(num_trials, progress, label="trials")
    logger.debug(
        "run_trials: %d trials at rate %.3f (seed %d, batch %s)",
        num_trials,
        search_rate,
        base_seed,
        batch_trials,
    )
    outcomes: List[Dict[str, TrialOutcome]] = []
    with recorder.span(
        "run_trials", num_trials=num_trials, search_rate=search_rate, base_seed=base_seed
    ):
        for (trial_outcomes,) in run_trial_blocks(
            scenario, schemes, [search_rate], base_seed, range(num_trials), batch_trials
        ):
            outcomes.append(trial_outcomes)
            reporter.update()
    return outcomes

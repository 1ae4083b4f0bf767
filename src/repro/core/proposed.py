"""The paper's proposed learning-based beam alignment (Algorithm 1).

Per TX-slot ``i`` (Sec. IV-C, "Integrated Design of Beam Alignment"):

1. **Forward transmission** — the transmitter picks ``u_i`` (randomly,
   without repetition, per Sec. IV-B2) and dwells on it for the slot.
2. **Receiver beam direction selection** — the receiver picks the first
   ``J - 1`` RX probe directions as the codebook beams with the largest
   estimated quality ``v^H Q_hat v`` under the *previous* slot's
   covariance estimate (random for the very first slot).
3. **Receiver measurement** — it measures those ``J - 1`` pairs.
4. **Receiver update and measurement** — it estimates the slot covariance
   from the ``J - 1`` power statistics via penalized ML (Eq. 23), then
   takes the J-th measurement on the beam maximizing ``v^H Q_hat v``
   (Eq. 26).
5. After ``I`` slots, the best *measured* pair wins (Eq. 30).

Already-measured pairs are never re-measured; when the greedy choice is
excluded the next-best available beam is taken.

**Detection floor.** A literal argmax over ``v^H Q_hat v`` degenerates on
orthogonal (DFT-grid) codebooks: the estimate built from ``J-1``
orthogonal probes carries no energy along any other codebook beam, so
every unprobed beam ties at zero and a deterministic argsort would pin
the scheme to the lowest-indexed beams forever. The receiver knows its
noise floor ``1/gamma``, so the implementation exploits a beam only when
its estimated gain clears ``signal_threshold / gamma``; selection slots
not filled by above-floor beams fall back to uniform random exploration.
This is the natural reading of the paper's design — the estimate guides
measurement *where it actually contains information* — and without it
Algorithm 1 is unusable at low search rates (the ``abl-floor`` benchmark
quantifies this).
"""

from __future__ import annotations

import copy
from typing import Callable, List, Optional, Set, Tuple

import numpy as np

from repro.core.base import AlignmentContext, BeamAlignmentAlgorithm, BudgetLadder
from repro.core.result import AlignmentResult, SlotRecord
from repro.estimation.base import CovarianceEstimator
from repro.estimation.ml_covariance import MlCovarianceEstimator
from repro.exceptions import ValidationError
from repro.types import BeamPair
from repro.utils.rng import copy_generator
from repro.utils.validation import check_probability

__all__ = ["ProposedAlignment"]

EstimatorFactory = Callable[[], CovarianceEstimator]


def _available_beams(num_beams: int, excluded: Set[int]) -> np.ndarray:
    """Ascending indices of the beams not in ``excluded``."""
    if not excluded:
        return np.arange(num_beams)
    mask = np.ones(num_beams, dtype=bool)
    mask[list(excluded)] = False
    return np.flatnonzero(mask)


class ProposedAlignment(BeamAlignmentAlgorithm):
    """Adaptive, covariance-estimation-guided beam alignment.

    Parameters
    ----------
    measurements_per_slot:
        ``J`` — RX measurements per TX-slot (paper Fig. 4). The budget is
        split into ``I = ceil(L / J)`` slots; a final partial slot uses
        whatever remains so the consumed search rate matches the target.
    estimator_factory:
        Builds a fresh covariance estimator per alignment run (default:
        the penalized-ML estimator of Eq. 23). The estimator instance
        persists across slots, so warm-starting estimators carry channel
        knowledge forward exactly as Sec. IV-C intends. A smaller budget
        of a ladder forks it with :func:`copy.copy`, so an estimator
        replaces its state between calls rather than mutating it.
    exploration:
        Minimum fraction of each slot's probe beams drawn uniformly at
        random even when the estimate offers enough above-floor beams.
        Keeps a trickle of exploration on channels where an early lock-on
        would otherwise freeze coverage; 0 reproduces the paper exactly.
    signal_threshold:
        The detection floor, in multiples of the noise variance: a beam
        is exploited only when its estimated gain ``v^H Q_hat v`` exceeds
        ``signal_threshold * (1 / gamma)``. See the module docstring.
    """

    name = "Proposed"

    def __init__(
        self,
        measurements_per_slot: int = 8,
        estimator_factory: Optional[EstimatorFactory] = None,
        exploration: float = 0.25,
        signal_threshold: float = 0.5,
    ) -> None:
        if measurements_per_slot < 1:
            raise ValidationError(
                f"measurements_per_slot must be >= 1, got {measurements_per_slot}"
            )
        if signal_threshold < 0:
            raise ValidationError(
                f"signal_threshold must be >= 0, got {signal_threshold}"
            )
        self._measurements_per_slot = measurements_per_slot
        self._estimator_factory = estimator_factory or MlCovarianceEstimator
        self._exploration = check_probability(exploration, "exploration")
        self._signal_threshold = signal_threshold

    # ------------------------------------------------------------------

    def align(
        self,
        context: AlignmentContext,
        rng: np.random.Generator,
        ladder: Optional[BudgetLadder] = None,
    ) -> AlignmentResult:
        """Run Algorithm 1 until the budget is spent.

        A TX slot reads the budget only to size itself, so a run at a
        smaller budget repeats this one slot for slot until its budget
        runs out or its last slot comes up short. ``ladder``'s budgets
        settle along the way: one with nothing left at the top of a slot
        takes this run's result as it stands, and one whose last slot is
        partial runs that slot on a fork (with copies of the RNG, the
        estimator and the slot records) before this run goes on.
        """
        estimator = self._estimator_factory()
        per_slot = min(self._measurements_per_slot, context.rx_codebook.num_beams)
        gain_floor = self._signal_threshold * context.noise_variance
        rungs = ladder.pending if ladder is not None else []

        previous_estimate: Optional[np.ndarray] = None
        used_tx: Set[int] = set()
        slot_records: List[SlotRecord] = []

        slot = -1
        while not context.budget.exhausted:
            slot += 1
            spent = context.budget.spent
            while rungs and rungs[0] <= spent:
                ladder.settle(rungs.pop(0), context.result(self.name, slots=slot_records))
            tx_index = self._pick_tx_beam(context, used_tx, rng)
            if tx_index is None:
                break  # every pair measured; nothing left to learn
            used_tx.add(tx_index)
            measured_rx = context.measured_rx_beams(tx_index)
            full = min(per_slot, context.rx_codebook.num_beams - len(measured_rx))
            while rungs and rungs[0] - spent < full:
                limit = rungs.pop(0)
                with ladder.alone(limit):
                    fork = context.fork(limit)
                    record, _ = self._run_slot(
                        fork,
                        copy.copy(estimator),
                        copy_generator(rng),
                        slot,
                        tx_index,
                        limit - spent,
                        measured_rx,
                        previous_estimate,
                        gain_floor,
                    )
                    result = fork.result(self.name, slots=slot_records + [record])
                ladder.settle(limit, result)
            record, previous_estimate = self._run_slot(
                context,
                estimator,
                rng,
                slot,
                tx_index,
                min(full, context.budget.remaining),
                measured_rx,
                previous_estimate,
                gain_floor,
            )
            slot_records.append(record)

        for limit in rungs:
            ladder.settle(limit, context.result(self.name, slots=slot_records))
        return context.result(self.name, slots=slot_records)

    def align_ladder(
        self,
        context: AlignmentContext,
        rng: np.random.Generator,
        ladder: BudgetLadder,
    ) -> AlignmentResult:
        """One run settles every budget of ``ladder`` (see :meth:`align`)."""
        return self.align(context, rng, ladder)

    def _run_slot(
        self,
        context: AlignmentContext,
        estimator: CovarianceEstimator,
        rng: np.random.Generator,
        slot: int,
        tx_index: int,
        size: int,
        measured_rx: Set[int],
        previous_estimate: Optional[np.ndarray],
        gain_floor: float,
    ) -> Tuple[SlotRecord, Optional[np.ndarray]]:
        """Steps 2-4 of one TX slot of ``size`` measurements on ``tx_index``.

        Returns the slot's record and the estimate the next slot reads.
        """
        rx_codebook = context.rx_codebook
        probe_beams = self._select_probe_beams(
            rx_codebook, previous_estimate, size - 1, measured_rx, gain_floor, rng
        )
        powers = context.measure_many(
            tx_index * rx_codebook.num_beams + np.array(probe_beams, dtype=np.int64),
            slot=slot,
        )

        decided_beam: Optional[int] = None
        estimate = previous_estimate
        estimator_converged: Optional[bool] = None
        if probe_beams:
            probes = rx_codebook.vectors[:, probe_beams]
            estimate = estimator.estimate(probes, powers, context.noise_variance)
            last_result = getattr(estimator, "last_result", None)
            if last_result is not None:
                estimator_converged = bool(last_result.converged)
        if size > len(probe_beams):
            exclude = measured_rx | set(probe_beams)
            decided_beam = self._decide_beam(
                rx_codebook, estimate, exclude, gain_floor, rng
            )
            context.measure(BeamPair(tx_index, decided_beam), slot=slot)

        record = SlotRecord(
            slot=slot,
            tx_beam=tx_index,
            probe_rx_beams=tuple(probe_beams),
            decided_rx_beam=decided_beam,
            estimator_converged=estimator_converged,
        )
        return record, estimate

    # ------------------------------------------------------------------

    def _pick_tx_beam(
        self,
        context: AlignmentContext,
        used_tx: Set[int],
        rng: np.random.Generator,
    ) -> Optional[int]:
        """TX beam for this slot, guaranteed to have unmeasured RX pairs.

        Uniform over the beams not used yet (Sec. IV-B2), or over every
        beam once all have been used; a beam whose RX pairs are all
        measured is marked used and drawn again.
        """
        num_tx = context.tx_codebook.num_beams
        rx_total = context.rx_codebook.num_beams
        for _ in range(num_tx):
            choices = [index for index in range(num_tx) if index not in used_tx]
            candidate = int(rng.choice(choices or list(range(num_tx))))
            if len(context.measured_rx_beams(candidate)) < rx_total:
                return candidate
            used_tx.add(candidate)
        for candidate in range(num_tx):
            if len(context.measured_rx_beams(candidate)) < rx_total:
                return candidate
        return None

    def _select_probe_beams(
        self,
        rx_codebook,
        previous_estimate: Optional[np.ndarray],
        count: int,
        measured_rx: Set[int],
        gain_floor: float,
        rng: np.random.Generator,
    ) -> List[int]:
        """The first ``J-1`` RX directions of the slot (Sec. IV-B2).

        Exploit the above-floor beams of the previous estimate (largest
        ``v^H Q_hat v`` first), reserve at least ``exploration * count``
        slots for random beams, and fill any shortfall randomly.
        """
        if count <= 0:
            return []
        candidates = _available_beams(rx_codebook.num_beams, measured_rx)
        count = min(count, len(candidates))
        chosen: List[int] = []
        if previous_estimate is not None:
            reserved_random = int(round(self._exploration * count))
            greedy_budget = count - reserved_random
            if greedy_budget > 0:
                gains = rx_codebook.gains(previous_estimate)
                # Stable argsort on the ascending candidate list matches the
                # previous sorted(..., key=-gain) tie-breaking exactly.
                order = np.argsort(-gains[candidates], kind="stable")
                ranked = candidates[order[:greedy_budget]]
                chosen.extend(int(idx) for idx in ranked[gains[ranked] > gain_floor])
        remaining = candidates
        if chosen:
            remaining = candidates[~np.isin(candidates, chosen)]
        fill = count - len(chosen)
        if fill > 0:
            extra = rng.choice(remaining, size=fill, replace=False)
            chosen.extend(int(index) for index in extra)
        return chosen

    def _decide_beam(
        self,
        rx_codebook,
        estimate: Optional[np.ndarray],
        exclude: Set[int],
        gain_floor: float,
        rng: np.random.Generator,
    ) -> int:
        """The J-th measurement direction (Eq. 26) with the detection floor."""
        candidates = _available_beams(rx_codebook.num_beams, exclude)
        if len(candidates) == 0:
            raise ValidationError("no RX beam available for the decided measurement")
        if estimate is not None:
            gains = rx_codebook.gains(estimate)
            best = int(candidates[np.argmax(gains[candidates])])
            if gains[best] > gain_floor:
                return best
        return int(rng.choice(candidates))

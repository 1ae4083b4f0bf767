"""Bidirectional beam alignment: learn both ends of the link.

The paper fixes a random TX beam per slot and only learns the RX side
("We will randomly select TX beam direction in each TX-slot and focus on
the selection of RX beam direction"), noting that RX-to-TX transmission
exists in the system model (Sec. III-A) without ever using it. This
module delivers that extension: slots alternate between

* **forward** slots — TX dwells, RX probes; the RX-side covariance
  estimate ``Q_rx`` is updated exactly as in Algorithm 1; and
* **reverse** slots — RX dwells (channel reciprocity: a measurement of
  pair ``(u, v)`` is symmetric in the power statistic), TX-side probes
  vary; a TX-side covariance estimate ``Q_tx`` is updated the same way.

Each side's dwell beam is then chosen greedily from the *other* side's
estimate instead of randomly, so the scheme stops wasting slots on TX
beams that miss the channel — the dominant cost of the unidirectional
design on single-cluster channels. The same detection floor and
exploration guard as :class:`~repro.core.proposed.ProposedAlignment`
apply to both sides.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set

import numpy as np

from repro.arrays.codebook import Codebook
from repro.core.base import AlignmentContext, BeamAlignmentAlgorithm
from repro.core.proposed import _available_beams
from repro.core.result import AlignmentResult, SlotRecord
from repro.estimation.base import CovarianceEstimator
from repro.estimation.ml_covariance import MlCovarianceEstimator
from repro.exceptions import ValidationError
from repro.types import BeamPair
from repro.utils.validation import check_probability

__all__ = ["BidirectionalAlignment"]

EstimatorFactory = Callable[[], CovarianceEstimator]


class BidirectionalAlignment(BeamAlignmentAlgorithm):
    """Alternating forward/reverse covariance-guided alignment."""

    name = "Bidirectional"

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
    ) -> AlignmentResult:
        rx_estimator = self._estimator_factory()
        tx_estimator = self._estimator_factory()
        gain_floor = self._signal_threshold * context.noise_variance

        rx_estimate: Optional[np.ndarray] = None
        tx_estimate: Optional[np.ndarray] = None
        used_dwells = {True: set(), False: set()}  # forward -> used TX beams
        slot_records: List[SlotRecord] = []

        slot = -1
        while not context.budget.exhausted:
            slot += 1
            forward = slot % 2 == 0
            if forward:
                dwell_codebook, probe_codebook = context.tx_codebook, context.rx_codebook
                dwell_estimate, probe_estimate = tx_estimate, rx_estimate
                estimator = rx_estimator
            else:
                dwell_codebook, probe_codebook = context.rx_codebook, context.tx_codebook
                dwell_estimate, probe_estimate = rx_estimate, tx_estimate
                estimator = tx_estimator

            dwell = self._pick_dwell_beam(
                context, forward, dwell_codebook, dwell_estimate,
                used_dwells[forward], gain_floor, rng,
            )
            if dwell is None:
                break
            used_dwells[forward].add(dwell)
            measured = self._measured_probe_beams(context, forward, dwell)
            available = probe_codebook.num_beams - len(measured)
            size = min(self._measurements_per_slot, context.budget.remaining, available)
            if size <= 0:
                continue

            probe_beams = self._select_probes(
                probe_codebook, probe_estimate, size - 1, measured, gain_floor, rng
            )
            powers = []
            for beam in probe_beams:
                pair = BeamPair(dwell, beam) if forward else BeamPair(beam, dwell)
                powers.append(context.measure(pair, slot=slot).power)

            estimate = probe_estimate
            if probe_beams:
                probes = probe_codebook.vectors[:, probe_beams]
                estimate = estimator.estimate(
                    probes, np.asarray(powers), context.noise_variance
                )

            decided: Optional[int] = None
            if size > len(probe_beams):
                exclude = measured | set(probe_beams)
                decided = self._decide(
                    probe_codebook, estimate, exclude, gain_floor, rng
                )
                pair = BeamPair(dwell, decided) if forward else BeamPair(decided, dwell)
                context.measure(pair, slot=slot)

            if forward:
                rx_estimate = estimate
            else:
                tx_estimate = estimate
            slot_records.append(
                SlotRecord(
                    slot=slot,
                    tx_beam=dwell if forward else (decided if decided is not None else -1),
                    probe_rx_beams=tuple(probe_beams) if forward else (),
                    decided_rx_beam=decided if forward else None,
                )
            )

        return context.result(self.name, slots=slot_records)

    # ------------------------------------------------------------------

    @staticmethod
    def _measured_probe_beams(
        context: AlignmentContext,
        forward: bool,
        dwell: int,
    ) -> Set[int]:
        if forward:
            return context.measured_rx_beams(dwell)
        return context.measured_tx_beams(dwell)

    def _pick_dwell_beam(
        self,
        context: AlignmentContext,
        forward: bool,
        dwell_codebook: Codebook,
        dwell_estimate: Optional[np.ndarray],
        used: Set[int],
        gain_floor: float,
        rng: np.random.Generator,
    ) -> Optional[int]:
        """The slot's dwell beam: greedy from the other side's estimate.

        Falls back to random-without-repetition (the paper's policy) when
        the other side has not detected anything yet.
        """
        probe_total = (
            context.rx_codebook.num_beams if forward else context.tx_codebook.num_beams
        )
        candidates = [
            index
            for index in range(dwell_codebook.num_beams)
            if len(self._measured_probe_beams(context, forward, index)) < probe_total
        ]
        if not candidates:
            return None
        fresh = [index for index in candidates if index not in used] or candidates
        if dwell_estimate is not None:
            gains = dwell_codebook.gains(dwell_estimate)
            fresh_array = np.asarray(fresh)
            best = int(fresh_array[np.argmax(gains[fresh_array])])
            if gains[best] > gain_floor:
                return best
        return int(rng.choice(fresh))

    def _select_probes(
        self,
        codebook: Codebook,
        estimate: Optional[np.ndarray],
        count: int,
        measured: Set[int],
        gain_floor: float,
        rng: np.random.Generator,
    ) -> List[int]:
        if count <= 0:
            return []
        candidates = _available_beams(codebook.num_beams, measured)
        count = min(count, len(candidates))
        chosen: List[int] = []
        if estimate is not None:
            reserved = int(round(self._exploration * count))
            greedy_budget = count - reserved
            if greedy_budget > 0:
                gains = codebook.gains(estimate)
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

    def _decide(
        self,
        codebook: Codebook,
        estimate: Optional[np.ndarray],
        exclude: Set[int],
        gain_floor: float,
        rng: np.random.Generator,
    ) -> int:
        candidates = _available_beams(codebook.num_beams, exclude)
        if len(candidates) == 0:
            raise ValidationError("no beam available for the decided measurement")
        if estimate is not None:
            gains = codebook.gains(estimate)
            best = int(candidates[np.argmax(gains[candidates])])
            if gains[best] > gain_floor:
                return best
        return int(rng.choice(candidates))

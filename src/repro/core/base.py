"""Beam-alignment algorithm interface and shared measurement context.

Every scheme — the paper's proposed Algorithm 1 and all baselines — runs
against the same :class:`AlignmentContext`: a metered, deduplicating view
over the measurement engine. The context enforces the two ground rules of
the paper's evaluation (Sec. V):

* a beam pair is never measured twice ("if a beam pair has already been
  measured, it will no longer be measured");
* no scheme exceeds its measurement budget (the Search Rate under
  comparison).
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Set

import numpy as np

from repro.arrays.codebook import Codebook
from repro.core.result import AlignmentResult
from repro.exceptions import BudgetExhaustedError, ValidationError
from repro.measurement.budget import MeasurementBudget
from repro.measurement.measurer import Measurement, MeasurementEngine
from repro.obs import get_recorder
from repro.types import BeamPair

__all__ = ["AlignmentContext", "BeamAlignmentAlgorithm"]


class AlignmentContext:
    """Metered access to beam-pair measurements for one alignment run."""

    def __init__(
        self,
        tx_codebook: Codebook,
        rx_codebook: Codebook,
        engine: MeasurementEngine,
        budget: MeasurementBudget,
        stream: Optional[str] = None,
    ) -> None:
        expected_total = tx_codebook.num_beams * rx_codebook.num_beams
        if budget.total_pairs != expected_total:
            raise ValidationError(
                f"budget covers {budget.total_pairs} pairs but codebooks have"
                f" {expected_total}"
            )
        self._tx_codebook = tx_codebook
        self._rx_codebook = rx_codebook
        self._engine = engine
        self._budget = budget
        self._num_rx = rx_codebook.num_beams
        # Measured codebook pairs keyed by flat index ``tx * |V| + rx``:
        # dedup then hashes plain ints instead of BeamPair dataclasses.
        self._measured: Dict[int, Measurement] = {}
        self._measured_by_tx: Dict[int, Set[int]] = {}
        self._trace: List[Measurement] = []
        # Flight-recorder hookup: contexts are built per trial inside the
        # active recorder's scope, so caching it here is safe and keeps
        # the per-measurement guard to one attribute load.
        self._recorder = get_recorder()
        self._stream = stream

    # -- accessors ------------------------------------------------------

    @property
    def tx_codebook(self) -> Codebook:
        """The TX beam set ``U``."""
        return self._tx_codebook

    @property
    def rx_codebook(self) -> Codebook:
        """The RX beam set ``V``."""
        return self._rx_codebook

    @property
    def budget(self) -> MeasurementBudget:
        """The measurement budget (read for remaining allowance)."""
        return self._budget

    @property
    def engine(self) -> MeasurementEngine:
        """The underlying measurement engine.

        Exposed for schemes with non-pair observation models (e.g. the
        digital-RX extension); such schemes must still charge the budget
        for every dwell.
        """
        return self._engine

    @property
    def noise_variance(self) -> float:
        """Post-matched-filter noise variance ``1 / gamma``."""
        return self._engine.noise_variance

    @property
    def total_pairs(self) -> int:
        """``T = card(U) * card(V)`` (Eq. 1)."""
        return self._budget.total_pairs

    @property
    def trace(self) -> List[Measurement]:
        """All measurements taken so far, in order."""
        return list(self._trace)

    @property
    def num_measurements(self) -> int:
        """Measurements consumed so far."""
        return self._budget.spent

    # -- measurement ----------------------------------------------------

    def is_measured(self, pair: BeamPair) -> bool:
        """Whether a codebook pair was already measured in this run."""
        return self._record(pair) is not None

    def _record(self, pair: BeamPair) -> Optional[Measurement]:
        """The measurement of a codebook pair, or ``None`` if unmeasured."""
        if pair.rx_index >= self._num_rx:
            return None  # off the codebook: its flat index would alias
        return self._measured.get(pair.tx_index * self._num_rx + pair.rx_index)

    def measured_indices(self) -> Set[int]:
        """Flat indices ``tx * |V| + rx`` of every measured codebook pair.

        Returns a copy, so a planner may extend it with its own picks.
        """
        return set(self._measured)

    def measured_rx_beams(self, tx_index: int) -> Set[int]:
        """RX beams already paired with ``tx_index`` (for dedup).

        Served from an index maintained per measurement, so schemes that
        consult it every slot pay O(measured for this TX) instead of
        scanning every measured pair. Returns a copy; mutating it never
        affects the context.
        """
        return set(self._measured_by_tx.get(tx_index, ()))

    def measure(self, pair: BeamPair, slot: Optional[int] = None) -> Measurement:
        """Measure a codebook pair: charges budget, forbids repeats."""
        if self.is_measured(pair):
            raise ValidationError(f"pair {pair} was already measured")
        self._budget.charge(1)
        measurement = self._engine.measure_pair(
            self._tx_codebook, self._rx_codebook, pair, slot=slot
        )
        self._measured[pair.tx_index * self._num_rx + pair.rx_index] = measurement
        self._measured_by_tx.setdefault(pair.tx_index, set()).add(pair.rx_index)
        self._trace.append(measurement)
        if self._recorder.checkpoints_enabled:
            self._recorder.checkpoint(
                "measurement.probe",
                {"z": np.array([measurement.z], dtype=complex)},
                stream=self._stream,
                power=measurement.power,
                tx=pair.tx_index,
                rx=pair.rx_index,
                slot=slot,
            )
        return measurement

    def measure_many(
        self,
        pairs: List[BeamPair],
        slot: Optional[int] = None,
    ) -> List[Measurement]:
        """Measure several codebook pairs through one fused engine call.

        Same dedup and metering semantics as calling :meth:`measure` per
        pair, with one deliberate difference: the budget is charged for
        the whole batch up front, so a batch that exceeds the remaining
        allowance raises :class:`BudgetExhaustedError` *before* any of
        its measurements is taken (callers size batches to the remaining
        budget, as :meth:`measure` callers already size their loops).
        Seeded results are bit-identical to the per-pair loop.
        """
        if not pairs:
            return []
        num_rx = self._num_rx
        flats = [pair.tx_index * num_rx + pair.rx_index for pair in pairs]
        measured = self._measured
        if len(set(flats)) != len(flats) or not measured.keys().isdisjoint(flats):
            # Rare path: walk the batch only to name the offending pair.
            seen: Set[BeamPair] = set()
            for pair in pairs:
                if pair in seen:
                    raise ValidationError("measure_many pairs must be distinct")
                seen.add(pair)
            for pair in pairs:
                if self.is_measured(pair):
                    raise ValidationError(f"pair {pair} was already measured")
        self._budget.charge(len(pairs))
        measurements = self._engine.measure_pairs(
            self._tx_codebook, self._rx_codebook, pairs, slot=slot
        )
        measured.update(zip(flats, measurements))
        by_tx = self._measured_by_tx
        for pair in pairs:
            by_tx.setdefault(pair.tx_index, set()).add(pair.rx_index)
        self._trace.extend(measurements)
        if self._recorder.checkpoints_enabled:
            self._recorder.checkpoint(
                "measurement.probe",
                {"z": np.array([m.z for m in measurements], dtype=complex)},
                stream=self._stream,
                pairs=[[pair.tx_index, pair.rx_index] for pair in pairs],
                slot=slot,
            )
        return measurements

    def measure_vectors(
        self,
        tx_beam: np.ndarray,
        rx_beam: np.ndarray,
        slot: Optional[int] = None,
    ) -> Measurement:
        """Measure an off-codebook beam pair (e.g. hierarchical wide beams).

        Costs one budget unit like any other measurement but is exempt
        from pair dedup since it has no codebook identity.
        """
        self._budget.charge(1)
        measurement = self._engine.measure_vectors(tx_beam, rx_beam, slot=slot)
        self._trace.append(measurement)
        if self._recorder.checkpoints_enabled:
            self._recorder.checkpoint(
                "measurement.probe",
                {"z": np.array([measurement.z], dtype=complex)},
                stream=self._stream,
                power=measurement.power,
                slot=slot,
                off_codebook=True,
            )
        return measurement

    # -- outcome --------------------------------------------------------

    def best_measured(self) -> Measurement:
        """The strongest measured codebook pair (Eq. 28–30)."""
        if not self._measured:
            raise ValidationError("no codebook pair has been measured yet")
        return max(self._measured.values(), key=lambda m: m.power)

    def result(
        self,
        algorithm: str,
        slots: Optional[list] = None,
        selected: Optional[BeamPair] = None,
    ) -> AlignmentResult:
        """Package the run into an :class:`AlignmentResult`.

        By default the selected pair is the best measured one; schemes
        that decide differently (e.g. the genie) may override it.
        """
        if selected is None:
            best = self.best_measured()
            selected = best.pair
            power = best.power
        else:
            record = self._record(selected)
            power = record.power if record is not None else float("nan")
        return AlignmentResult(
            algorithm=algorithm,
            selected=selected,
            selected_power=power,
            measurements_used=self._budget.spent,
            total_pairs=self.total_pairs,
            trace=self.trace,
            slots=list(slots) if slots else [],
        )


class BeamAlignmentAlgorithm(abc.ABC):
    """A beam-alignment scheme: consumes a context, returns a result."""

    #: Scheme label used in experiment tables (e.g. "Proposed", "Random").
    name: str = "abstract"

    @abc.abstractmethod
    def align(
        self,
        context: AlignmentContext,
        rng: np.random.Generator,
    ) -> AlignmentResult:
        """Run the scheme until its budget is spent; return the outcome."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"

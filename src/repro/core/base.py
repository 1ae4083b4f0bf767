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
from typing import Dict, List, Mapping, Optional, Sequence, Set

import numpy as np

from repro.arrays.codebook import Codebook
from repro.core.result import AlignmentResult, ProbeTrace
from repro.exceptions import BudgetExhaustedError, ValidationError
from repro.measurement.budget import MeasurementBudget
from repro.measurement.measurer import Measurement, MeasurementEngine
from repro.obs import get_recorder
from repro.types import BeamPair
from repro.utils.rng import copy_generator

__all__ = ["AlignmentContext", "BeamAlignmentAlgorithm", "BudgetLadder"]


class AlignmentContext:
    """Metered access to beam-pair measurements for one alignment run.

    Every measurement lands in one columnar probe log: per record, in
    measurement order, the flat pair index ``tx * card(V) + rx`` (``-1``
    for an off-codebook probe), the power statistic, the last sample
    ``z`` and the slot. A flat → record array over the codebook product
    serves dedup. :class:`Measurement` records are built only when read
    (:meth:`measure`, :meth:`measure_vectors`, :attr:`trace`).
    """

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
        self._num_tx = tx_codebook.num_beams
        self._num_rx = rx_codebook.num_beams
        # Every record charges one budget unit, so the limit bounds the log.
        capacity = budget.limit
        self._flats = np.empty(capacity, dtype=np.int64)
        self._powers = np.empty(capacity)
        self._z = np.empty(capacity, dtype=complex)
        self._slots: List[Optional[int]] = []
        self._record_of = np.full(expected_total, -1, dtype=np.int64)
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
    def trace(self) -> ProbeTrace:
        """All measurements taken so far, in order.

        A read-only view frozen at this call: later measurements do not
        appear in it, and its records are built when it is read.
        """
        size = len(self._slots)
        return ProbeTrace(
            self._flats[:size],
            self._powers[:size],
            self._z[:size],
            self._slots[:],
            self._num_rx,
        )

    @property
    def num_measurements(self) -> int:
        """Measurements consumed so far."""
        return self._budget.spent

    def fork(self, limit: int) -> "AlignmentContext":
        """A context at budget ``limit`` that continues this run alone.

        The child starts where this context stands: it gets copies of the
        probe log, the dedup table and the spent count, and a forked
        engine (its own copy of the RNG state and counters); it shares
        the channel and the codebooks. Measurements on either context
        never show on the other. ``limit`` must cover what is already
        spent.
        """
        budget = MeasurementBudget(self._budget.total_pairs, limit, self._budget.spent)
        child = AlignmentContext(
            self._tx_codebook, self._rx_codebook, self._engine.fork(), budget, self._stream
        )
        size = len(self._slots)
        child._flats[:size] = self._flats[:size]
        child._powers[:size] = self._powers[:size]
        child._z[:size] = self._z[:size]
        child._slots = self._slots[:]
        child._record_of[:] = self._record_of
        return child

    # -- measurement ----------------------------------------------------

    def is_measured(self, pair: BeamPair) -> bool:
        """Whether a codebook pair was already measured in this run.

        False for a pair outside the codebook product.
        """
        flat = self._flat(pair)
        return flat is not None and bool(self._record_of[flat] >= 0)

    def _flat(self, pair: BeamPair) -> Optional[int]:
        """Flat index ``tx * |V| + rx``, or ``None`` off the codebook product."""
        if pair.tx_index < self._num_tx and pair.rx_index < self._num_rx:
            return pair.tx_index * self._num_rx + pair.rx_index
        return None

    def measured_indices(self) -> Set[int]:
        """Flat indices ``tx * |V| + rx`` of every measured codebook pair.

        Returns a copy, so a planner may extend it with its own picks.
        """
        flats = self._flats[: len(self._slots)]
        return set(flats[flats >= 0].tolist())

    def measured_rx_beams(self, tx_index: int) -> Set[int]:
        """RX beams already paired with ``tx_index`` (for dedup).

        Read from the TX beam's row of the flat → record array, so it
        costs O(card(V)) however many pairs were measured. Returns a
        copy; mutating it never affects the context.
        """
        if not 0 <= tx_index < self._num_tx:
            return set()
        start = tx_index * self._num_rx
        row = self._record_of[start : start + self._num_rx]
        return set(np.flatnonzero(row >= 0).tolist())

    def measured_tx_beams(self, rx_index: int) -> Set[int]:
        """TX beams already paired with ``rx_index``: the column twin of
        :meth:`measured_rx_beams`, O(card(U)). Returns a copy."""
        if not 0 <= rx_index < self._num_rx:
            return set()
        column = self._record_of[rx_index :: self._num_rx]
        return set(np.flatnonzero(column >= 0).tolist())

    def measure(self, pair: BeamPair, slot: Optional[int] = None) -> Measurement:
        """Measure a codebook pair: charges budget, forbids repeats."""
        flat = self._flat(pair)
        if flat is None:
            raise ValidationError(
                f"pair {pair} is outside the {self._num_tx} x {self._num_rx}"
                " codebook product"
            )
        if self._record_of[flat] >= 0:
            raise ValidationError(f"pair {pair} was already measured")
        self._budget.charge(1)
        measurement = self._engine.measure_pair(
            self._tx_codebook, self._rx_codebook, pair, slot=slot
        )
        self._record_of[flat] = self._log(flat, measurement.power, measurement.z, slot)
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
        pairs: np.ndarray,
        slot: Optional[int] = None,
    ) -> np.ndarray:
        """Measure several codebook pairs through one fused engine call.

        ``pairs`` holds flat pair indices ``tx * card(V) + rx``; the
        result is the array of their power statistics, in order. No
        :class:`Measurement` record is built; :attr:`trace` builds them
        on read.

        Same dedup and metering semantics as calling :meth:`measure` per
        pair, with one deliberate difference: the budget is charged for
        the whole batch up front, so a batch that exceeds the remaining
        allowance raises :class:`BudgetExhaustedError` *before* any of
        its measurements is taken (callers size batches to the remaining
        budget, as :meth:`measure` callers already size their loops).
        A rejected batch leaves the context untouched. Seeded results
        are bit-identical to the per-pair loop.
        """
        pairs = np.asarray(pairs)
        if not len(pairs):
            return np.empty(0)
        if pairs.ndim != 1 or pairs.dtype.kind not in "iu":
            raise ValidationError("measure_many takes a 1-D array of flat pair indices")
        # One sort serves the range check (its ends) and the distinctness
        # check (equal neighbours).
        ordered = np.sort(pairs)
        total = self._budget.total_pairs
        if ordered[0] < 0 or ordered[-1] >= total:
            flat = int(pairs[(pairs < 0) | (pairs >= total)][0])
            raise ValidationError(
                f"pair index {flat} is outside the {self._num_tx} x {self._num_rx}"
                " codebook product"
            )
        if (ordered[1:] == ordered[:-1]).any():
            raise ValidationError("measure_many pairs must be distinct")
        known = self._record_of[pairs]
        if known.max() >= 0:
            flat = int(pairs[known >= 0][0])
            pair = BeamPair(*divmod(flat, self._num_rx))
            raise ValidationError(f"pair {pair} was already measured")
        self._budget.charge(len(pairs))
        powers, z = self._engine.measure_pairs(
            self._tx_codebook, self._rx_codebook, pairs
        )
        start = self._log(pairs, powers, z, slot)
        self._record_of[pairs] = np.arange(start, start + len(pairs))
        if self._recorder.checkpoints_enabled:
            self._recorder.checkpoint(
                "measurement.probe",
                {"z": z},
                stream=self._stream,
                pairs=np.stack(np.divmod(pairs, self._num_rx), axis=1).tolist(),
                slot=slot,
            )
        return powers

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
        self._log(-1, measurement.power, measurement.z, slot)
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

    def _log(self, flats, powers, z, slot: Optional[int]) -> int:
        """Append records (scalars or arrays) to the probe log.

        Returns the first record's index; the caller files codebook
        records in the flat → record array.
        """
        start = len(self._slots)
        stop = start + np.size(flats)
        self._flats[start:stop] = flats
        self._powers[start:stop] = powers
        self._z[start:stop] = z
        self._slots.extend([slot] * (stop - start))
        return start

    # -- outcome --------------------------------------------------------

    def _best_record(self) -> int:
        """Log index of the first strongest codebook record (Eq. 28–30)."""
        size = len(self._slots)
        codebook = self._flats[:size] >= 0
        if not codebook.any():
            raise ValidationError("no codebook pair has been measured yet")
        return int(np.argmax(np.where(codebook, self._powers[:size], -np.inf)))

    def best_measured(self) -> Measurement:
        """The strongest measured codebook pair (Eq. 28–30)."""
        return self.trace[self._best_record()]

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
            record = self._best_record()
            selected = BeamPair(*divmod(int(self._flats[record]), self._num_rx))
            power = float(self._powers[record])
        else:
            flat = self._flat(selected)
            record = -1 if flat is None else self._record_of[flat]
            power = float(self._powers[record]) if record >= 0 else float("nan")
        return AlignmentResult(
            algorithm=algorithm,
            selected=selected,
            selected_power=power,
            measurements_used=self._budget.spent,
            total_pairs=self.total_pairs,
            trace=self.trace,
            slots=list(slots) if slots else [],
        )


class BudgetLadder:
    """The smaller budgets that one alignment run settles on its way.

    A sweep scores a scheme at several search rates on the same channel.
    The run itself goes at the largest budget; ``rates_by_limit`` maps
    every smaller budget to the search rates it serves, and ``top_rates``
    are the run's own. A scheme settles each smaller budget with
    :meth:`settle`, filing the result a run at that budget alone returns.

    :attr:`sharing` lists the rates whose runs still coincide with this
    one. The runner scopes the flight recorder to that list, so each
    checkpoint of the shared stretch is filed once per rate in it (and
    digested once); :meth:`settle` takes a budget's rates out of it, and
    :meth:`alone` scopes what a budget runs on its own fork.
    """

    def __init__(
        self,
        rates_by_limit: Mapping[int, Sequence[float]],
        top_rates: Sequence[float],
    ) -> None:
        self._rates: Dict[int, List[float]] = {
            limit: list(rates) for limit, rates in sorted(rates_by_limit.items())
        }
        self.sharing: List[float] = [
            rate for rates in self._rates.values() for rate in rates
        ] + list(top_rates)
        self.results: Dict[int, AlignmentResult] = {}

    @property
    def pending(self) -> List[int]:
        """The budgets not settled yet, smallest first."""
        return list(self._rates)

    def alone(self, limit: int):
        """Scope the flight recorder to budget ``limit``'s rates alone."""
        return get_recorder().rate_scope(self._rates[limit])

    def settle(self, limit: int, result: AlignmentResult) -> None:
        """File ``result`` as budget ``limit``'s; its rates stop sharing."""
        for rate in self._rates.pop(limit):
            self.sharing.remove(rate)
        self.results[limit] = result


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

    def align_ladder(
        self,
        context: AlignmentContext,
        rng: np.random.Generator,
        ladder: BudgetLadder,
    ) -> AlignmentResult:
        """Align at the context's budget and settle every budget of ``ladder``.

        Each smaller budget runs on its own, on a fork of the untouched
        context with a copy of ``rng``, so its result is what a run at
        that budget alone returns; then the run at the context's budget
        goes. A scheme whose runs share a common stretch overrides this
        to run it once.
        """
        for limit in ladder.pending:
            with ladder.alone(limit):
                result = self.align(context.fork(limit), copy_generator(rng))
            ladder.settle(limit, result)
        return self.align(context, rng)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"

"""The alignment context's columnar probe log.

A context keeps every probe as columns (flat pair index, power, ``z``,
slot) and builds :class:`Measurement` records only when something reads
them. These tests pin the log's contract: a rejected call leaves no
trace, out-of-range pairs are refused before the budget is charged, the
hot schemes build no records until ``result.trace`` is read, and the
records read back equal a per-pair ``measure()`` loop on the same seed.
"""

from __future__ import annotations

import copy
import gc
import weakref

import numpy as np
import pytest

from repro.baselines.random_search import RandomSearch
from repro.baselines.scan_search import ScanSearch
from repro.cell.config import CellConfig
from repro.cell.service import serve_cell
from repro.core.base import AlignmentContext
from repro.core.result import ProbeTrace
from repro.exceptions import BudgetExhaustedError, ValidationError
from repro.measurement.budget import MeasurementBudget
from repro.measurement.measurer import Measurement, MeasurementEngine
from repro.sim.config import ScenarioConfig
from repro.types import BeamPair

NUM_TX, NUM_RX = 4, 18  # the fixtures' codebooks


def _context(channel, tx_codebook, rx_codebook, seed=3, limit=12):
    engine = MeasurementEngine(channel, np.random.default_rng(seed), fading_blocks=2)
    budget = MeasurementBudget(total_pairs=NUM_TX * NUM_RX, limit=limit)
    return AlignmentContext(tx_codebook, rx_codebook, engine, budget)


def _state(context):
    """Everything a rejected call must leave exactly as it was."""
    return (
        context.budget.spent,
        context.engine.num_measurements,
        [
            context.is_measured(BeamPair(tx, rx))
            for tx in range(NUM_TX + 1)
            for rx in range(NUM_RX + 1)
        ],
        context.measured_indices(),
        [context.measured_rx_beams(tx) for tx in range(NUM_TX)],
        list(context.trace),
    )


def _message(call):
    with pytest.raises((ValidationError, BudgetExhaustedError)) as caught:
        call()
    return type(caught.value), str(caught.value)


class TestRejectedCallsLeaveNoTrace:
    @pytest.mark.parametrize(
        ("batch", "error", "message"),
        [
            ([3, 40, 3], ValidationError, "measure_many pairs must be distinct"),
            (
                [2, 19, 7],
                ValidationError,
                "pair BeamPair(tx_index=1, rx_index=1) was already measured",
            ),
            (
                [50, 51, 52, 53, 54],
                BudgetExhaustedError,
                "requested 5 measurements with only 3 left (limit 6 of 72 pairs)",
            ),
            (
                [1, (NUM_TX + 3) * NUM_RX],
                ValidationError,
                "pair index 126 is outside the 4 x 18 codebook product",
            ),
            (
                [1, -2],
                ValidationError,
                "pair index -2 is outside the 4 x 18 codebook product",
            ),
        ],
        ids=["duplicate", "already-measured", "over-budget", "tx-out-of-range", "negative"],
    )
    def test_measure_many(
        self, small_channel, tx_codebook, rx_codebook, batch, error, message
    ):
        context = _context(small_channel, tx_codebook, rx_codebook, limit=6)
        context.measure(BeamPair(0, 7))
        context.measure_many(np.array([19, 37]), slot=1)  # (1, 1) and (2, 1)
        before = _state(context)
        # Twice: a rejection must not change what the next one sees.
        for _ in range(2):
            assert _message(lambda: context.measure_many(np.array(batch))) == (
                error,
                message,
            )
            assert _state(context) == before

    @pytest.mark.parametrize(
        ("pair", "message"),
        [
            (BeamPair(NUM_TX, 0), "pair BeamPair(tx_index=4, rx_index=0) is outside"),
            (BeamPair(0, NUM_RX), "pair BeamPair(tx_index=0, rx_index=18) is outside"),
            (BeamPair(1, 2), "pair BeamPair(tx_index=1, rx_index=2) was already"),
        ],
        ids=["tx-out-of-range", "rx-out-of-range", "already-measured"],
    )
    def test_measure(self, small_channel, tx_codebook, rx_codebook, pair, message):
        context = _context(small_channel, tx_codebook, rx_codebook)
        context.measure(BeamPair(1, 2))
        before = _state(context)
        error, text = _message(lambda: context.measure(pair))
        assert error is ValidationError and text.startswith(message)
        assert _state(context) == before

    def test_non_index_batch_rejected(self, small_channel, tx_codebook, rx_codebook):
        context = _context(small_channel, tx_codebook, rx_codebook)
        before = _state(context)
        for batch in ([BeamPair(0, 1)], np.array([0.0, 1.0]), np.array([[0, 1]])):
            with pytest.raises(ValidationError, match="1-D array of flat pair indices"):
                context.measure_many(batch)
        assert _state(context) == before


class TestProbeTrace:
    def test_frozen_at_read(self, small_channel, tx_codebook, rx_codebook):
        context = _context(small_channel, tx_codebook, rx_codebook)
        context.measure_many(np.array([5, 23]), slot=0)
        result = context.result("test")
        earlier = list(result.trace)
        context.measure(BeamPair(3, 3), slot=1)
        assert result.trace == earlier
        assert len(result.trace) == 2 and len(context.trace) == 3
        assert context.trace[:2] == earlier
        assert context.trace[-1] == context.trace[2]
        assert context.trace[-1].slot == 1
        with pytest.raises(IndexError):
            context.trace[3]

    def test_records_built_per_read(self, small_channel, tx_codebook, rx_codebook):
        context = _context(small_channel, tx_codebook, rx_codebook)
        measurement = context.measure(BeamPair(0, 4))
        trace = context.trace
        assert trace[0] == measurement and trace[0] is not trace[0]
        assert trace == [measurement] and trace == context.trace
        assert trace != [measurement, measurement]
        assert trace != (measurement,)

    def test_result_does_not_keep_dedup_array(
        self, small_channel, tx_codebook, rx_codebook
    ):
        context = _context(small_channel, tx_codebook, rx_codebook)
        context.measure_many(np.array([1, 2, 3]))
        result = context.result("test")
        dedup = weakref.ref(context._record_of)
        del context
        gc.collect()
        assert dedup() is None
        assert len(result.trace) == 3

    def test_best_measured_skips_off_codebook(self, small_channel, tx_codebook, rx_codebook):
        context = _context(small_channel, tx_codebook, rx_codebook)
        context.measure_vectors(tx_codebook.beam(0), rx_codebook.beam(0))
        context.measure_many(np.array([9, 30, 31]))
        codebook = [m for m in context.trace if m.pair is not None]
        best = max(codebook, key=lambda m: m.power)
        assert context.best_measured() == best
        result = context.result("test")
        assert (result.selected, result.selected_power) == (best.pair, best.power)


class TestMeasuredPairs:
    def test_order_dedup_and_off_codebook(
        self, small_channel, tx_codebook, rx_codebook
    ):
        context = _context(small_channel, tx_codebook, rx_codebook)
        context.measure(BeamPair(2, 5))
        context.measure_vectors(tx_codebook.beam(1), rx_codebook.beam(1))
        context.measure_many(np.array([40, 0, 17]))
        context.measure_vectors(tx_codebook.beam(2), rx_codebook.beam(2))
        result = context.result("test")
        assert isinstance(result.trace, ProbeTrace)
        expected = [BeamPair(2, 5), BeamPair(2, 4), BeamPair(0, 0), BeamPair(0, 17)]
        assert result.measured_pairs() == expected
        records = [m.pair for m in result.trace if m.pair is not None]
        assert records == expected

    def test_full_sweep(self, small_channel, tx_codebook, rx_codebook):
        total = NUM_TX * NUM_RX
        context = _context(small_channel, tx_codebook, rx_codebook, limit=total)
        order = np.random.default_rng(0).permutation(total)
        context.measure_many(order)
        pairs = context.result("test").measured_pairs()
        assert pairs == [BeamPair(*divmod(int(flat), NUM_RX)) for flat in order]


@pytest.fixture
def probe_runs(monkeypatch):
    """Count record constructions; keep each engine's seed state for replay."""
    built = {"records": 0}
    engines = {}
    results = []
    record_init = Measurement.__init__
    engine_init = MeasurementEngine.__init__
    context_result = AlignmentContext.result

    def counting_init(self, *args, **kwargs):
        built["records"] += 1
        record_init(self, *args, **kwargs)

    def recording_engine_init(self, channel, rng, *args, **kwargs):
        engines[id(self)] = (channel, copy.deepcopy(rng), args, kwargs)
        engine_init(self, channel, rng, *args, **kwargs)

    def recording_result(self, *args, **kwargs):
        result = context_result(self, *args, **kwargs)
        results.append((self, result))
        return result

    monkeypatch.setattr(Measurement, "__init__", counting_init)
    monkeypatch.setattr(MeasurementEngine, "__init__", recording_engine_init)
    monkeypatch.setattr(AlignmentContext, "result", recording_result)

    def replay(context, result):
        """The result's pairs measured one by one on the same seed."""
        channel, rng, args, kwargs = engines[id(context.engine)]
        engine = MeasurementEngine(channel, copy.deepcopy(rng), *args, **kwargs)
        fresh = AlignmentContext(
            context.tx_codebook,
            context.rx_codebook,
            engine,
            MeasurementBudget(context.total_pairs, context.budget.limit),
        )
        return [fresh.measure(m.pair, slot=m.slot) for m in result.trace]

    return built, results, replay


def _fields(trace):
    return [(m.power, m.z, m.pair, m.slot) for m in trace]


class TestHotPathBuildsNoRecords:
    @pytest.mark.parametrize("scheme", [ScanSearch(), RandomSearch()], ids=str)
    @pytest.mark.parametrize("probability", [0.0, 0.3])
    def test_scheme(
        self, small_channel, tx_codebook, rx_codebook, probe_runs, scheme, probability
    ):
        built, results, replay = probe_runs
        engine = MeasurementEngine(
            small_channel,
            np.random.default_rng(21),
            fading_blocks=3,
            interference_probability=probability,
            interference_power=0.5,
        )
        context = AlignmentContext(
            tx_codebook,
            rx_codebook,
            engine,
            MeasurementBudget.from_search_rate(NUM_TX * NUM_RX, 0.5),
        )
        result = scheme.align(context, np.random.default_rng(22))
        assert built["records"] == 0
        assert result.measurements_used == 36
        looped = replay(context, result)
        assert _fields(result.trace) == _fields(looped)
        assert len(looped) == 36
        assert built["records"] > 0

    def test_cell_serve(self, probe_runs):
        built, results, replay = probe_runs
        config = CellConfig(
            scenario=ScenarioConfig(
                tx_shape=(2, 2), rx_shape=(2, 4), rx_beam_grid=(3, 3), fading_blocks=4
            ),
            num_users=6,
            arrival_rate_hz=5000.0,
            search_rate=0.25,
            probe_budget_per_frame=16,
            interference_coupling=0.2,
        )
        # The collector sees only this process: keep the serve in it.
        serve_cell(config, batch_users=4, workers=1)
        assert len(results) == 6
        assert built["records"] == 0
        for context, result in results:
            assert _fields(result.trace) == _fields(replay(context, result))

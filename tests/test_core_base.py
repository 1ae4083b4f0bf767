"""Tests for the alignment context and algorithm interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.scan_search import ScanSearch
from repro.core.base import AlignmentContext
from repro.exceptions import BudgetExhaustedError, ValidationError
from repro.measurement.budget import MeasurementBudget
from repro.measurement.measurer import MeasurementEngine
from repro.types import BeamPair


@pytest.fixture
def context(small_channel, tx_codebook, rx_codebook, rng):
    engine = MeasurementEngine(small_channel, rng, fading_blocks=2)
    budget = MeasurementBudget(
        total_pairs=tx_codebook.num_beams * rx_codebook.num_beams, limit=20
    )
    return AlignmentContext(tx_codebook, rx_codebook, engine, budget)


class TestContextBasics:
    def test_total_pairs(self, context):
        assert context.total_pairs == 4 * 18

    def test_noise_variance(self, context):
        assert context.noise_variance == pytest.approx(0.01)

    def test_budget_mismatch_rejected(self, small_channel, tx_codebook, rx_codebook, rng):
        engine = MeasurementEngine(small_channel, rng)
        bad_budget = MeasurementBudget(total_pairs=10, limit=5)
        with pytest.raises(ValidationError):
            AlignmentContext(tx_codebook, rx_codebook, engine, bad_budget)


class TestMeasurement:
    def test_measure_records(self, context):
        measurement = context.measure(BeamPair(0, 0))
        assert context.is_measured(BeamPair(0, 0))
        assert context.num_measurements == 1
        assert context.trace == [measurement]

    def test_repeat_measurement_rejected(self, context):
        context.measure(BeamPair(1, 2))
        with pytest.raises(ValidationError):
            context.measure(BeamPair(1, 2))

    def test_budget_enforced(self, context):
        for i in range(20):
            context.measure(BeamPair(i % 4, i // 4 + (i % 4) * 4))
        with pytest.raises(BudgetExhaustedError):
            context.measure(BeamPair(3, 17))

    def test_measured_rx_beams(self, context):
        context.measure(BeamPair(2, 5))
        context.measure(BeamPair(2, 9))
        context.measure(BeamPair(1, 5))
        assert context.measured_rx_beams(2) == {5, 9}
        assert context.measured_rx_beams(0) == set()

    def test_measured_tx_beams(self, context):
        context.measure(BeamPair(2, 5))
        context.measure(BeamPair(3, 5))
        context.measure(BeamPair(1, 9))
        assert context.measured_tx_beams(5) == {2, 3}
        assert context.measured_tx_beams(0) == set()
        assert context.measured_tx_beams(18) == set()
        assert context.measured_tx_beams(-1) == set()

    def test_measure_vectors_charges_budget(self, context, tx_codebook, rx_codebook):
        context.measure_vectors(tx_codebook.beam(0), rx_codebook.beam(0))
        assert context.num_measurements == 1
        # Off-codebook probes have no pair identity -> no dedup entry.
        assert not context.is_measured(BeamPair(0, 0))


def _flats(*pairs):
    """Flat indices ``tx * |V| + rx`` over the fixtures' 18 RX beams."""
    return np.array([pair.tx_index * 18 + pair.rx_index for pair in pairs])


class TestMeasureMany:
    def test_repeated_pair_rejected_without_charge(self, context):
        batch = _flats(BeamPair(0, 1), BeamPair(2, 3), BeamPair(0, 1))
        with pytest.raises(ValidationError, match="pairs must be distinct"):
            context.measure_many(batch)
        assert context.num_measurements == 0
        assert context.engine.num_measurements == 0
        assert context.trace == []
        assert not context.is_measured(BeamPair(2, 3))

    def test_measured_pair_rejected_without_charge(self, context):
        context.measure(BeamPair(1, 2))
        with pytest.raises(ValidationError, match=r"pair .* was already measured"):
            context.measure_many(_flats(BeamPair(0, 0), BeamPair(1, 2)))
        assert context.num_measurements == 1
        assert context.engine.num_measurements == 1
        assert not context.is_measured(BeamPair(0, 0))

    def test_batch_then_single_repeat_rejected(self, context):
        context.measure_many(_flats(BeamPair(3, 4), BeamPair(0, 17)))
        with pytest.raises(ValidationError, match="was already measured"):
            context.measure(BeamPair(0, 17))
        assert context.num_measurements == 2

    def test_is_measured_tracks_codebook_probes_only(
        self, context, tx_codebook, rx_codebook
    ):
        context.measure(BeamPair(0, 0))
        batch = [BeamPair(1, 0), BeamPair(2, 5), BeamPair(2, 9)]
        powers = context.measure_many(_flats(*batch))
        context.measure_vectors(tx_codebook.beam(3), rx_codebook.beam(3))
        for pair in [BeamPair(0, 0)] + batch:
            assert context.is_measured(pair)
        assert not context.is_measured(BeamPair(3, 3))
        assert [m.pair for m in context.trace[1:4]] == batch
        assert [m.power for m in context.trace[1:4]] == powers.tolist()
        assert context.trace[4].pair is None
        assert context.measured_rx_beams(2) == {5, 9}
        assert context.num_measurements == 5

    def test_off_codebook_index_does_not_alias(self, context):
        # BeamPair(0, 18) would share flat index 18 with BeamPair(1, 0).
        context.measure(BeamPair(1, 0))
        assert not context.is_measured(BeamPair(0, 18))
        # TX index 4 is past the 4-beam TX codebook: its flat index would
        # land past the product, and it must not raise either.
        assert not context.is_measured(BeamPair(4, 0))
        assert not context.is_measured(BeamPair(7, 17))
        assert context.measured_rx_beams(4) == set()

    @pytest.mark.parametrize(
        ("prior", "finishes"),
        [
            # a fully measured RX column blocks the walk: it stops early
            ([BeamPair(tx, rx) for tx in range(4) for rx in (0, 7, 11)], False),
            # only TX beam 3 is left: the walk measures every last pair
            ([BeamPair(tx, rx) for tx in range(3) for rx in range(18)], True),
        ],
        ids=["blocked-columns", "one-tx-left"],
    )
    def test_scan_skips_prior_measurements(
        self, small_channel, tx_codebook, rx_codebook, rng, prior, finishes
    ):
        total = tx_codebook.num_beams * rx_codebook.num_beams
        engine = MeasurementEngine(small_channel, rng, fading_blocks=2)
        context = AlignmentContext(
            tx_codebook,
            rx_codebook,
            engine,
            MeasurementBudget(total_pairs=total, limit=total),
        )
        context.measure(prior[0])
        context.measure_many(_flats(*prior[1:]))
        result = ScanSearch().align(context, rng)
        pairs = [m.pair for m in result.trace]
        assert pairs[: len(prior)] == prior
        assert len(set(pairs)) == len(pairs) == result.measurements_used
        assert all(context.is_measured(pair) for pair in pairs)
        assert (result.measurements_used == total) == finishes
        assert context.budget.exhausted == finishes


class TestOutcome:
    def test_best_measured(self, context):
        for pair in (BeamPair(0, 0), BeamPair(1, 3), BeamPair(3, 10)):
            context.measure(pair)
        best = context.best_measured()
        assert best.power == max(m.power for m in context.trace)

    def test_best_measured_empty(self, context):
        with pytest.raises(ValidationError):
            context.best_measured()

    def test_result_defaults_to_best(self, context):
        context.measure(BeamPair(0, 1))
        context.measure(BeamPair(2, 4))
        result = context.result("test")
        assert result.selected in (BeamPair(0, 1), BeamPair(2, 4))
        assert result.algorithm == "test"
        assert result.measurements_used == 2

    def test_result_with_explicit_selection(self, context):
        context.measure(BeamPair(0, 1))
        result = context.result("test", selected=BeamPair(0, 1))
        assert result.selected == BeamPair(0, 1)
        assert result.selected_power == context.trace[0].power

    def test_result_search_rate(self, context):
        context.measure(BeamPair(0, 0))
        result = context.result("test")
        assert result.search_rate == pytest.approx(1 / 72)

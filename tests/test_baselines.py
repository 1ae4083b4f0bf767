"""Tests for the baseline beam-alignment schemes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.genie import GenieAligner
from repro.baselines.hierarchical_search import HierarchicalSearch
from repro.baselines.local_refine import LocalRefineSearch
from repro.baselines.random_search import RandomSearch
from repro.baselines.scan_search import ScanSearch
from repro.core.base import AlignmentContext
from repro.measurement.budget import MeasurementBudget
from repro.measurement.measurer import MeasurementEngine
from repro.sim.metrics import loss_from_matrix_db


def _context(small_channel, tx_codebook, rx_codebook, rng, limit):
    engine = MeasurementEngine(small_channel, rng, fading_blocks=4)
    budget = MeasurementBudget(
        total_pairs=tx_codebook.num_beams * rx_codebook.num_beams, limit=limit
    )
    return AlignmentContext(tx_codebook, rx_codebook, engine, budget)


class TestRandomSearch:
    def test_spends_exact_budget(self, small_channel, tx_codebook, rx_codebook, rng):
        context = _context(small_channel, tx_codebook, rx_codebook, rng, 25)
        result = RandomSearch().align(context, rng)
        assert result.measurements_used == 25
        assert result.algorithm == "Random"

    def test_distinct_pairs(self, small_channel, tx_codebook, rx_codebook, rng):
        context = _context(small_channel, tx_codebook, rx_codebook, rng, 40)
        result = RandomSearch().align(context, rng)
        pairs = [m.pair for m in result.trace]
        assert len(set(pairs)) == 40

    def test_full_budget_covers_everything(
        self, small_channel, tx_codebook, rx_codebook, rng
    ):
        total = tx_codebook.num_beams * rx_codebook.num_beams
        context = _context(small_channel, tx_codebook, rx_codebook, rng, total)
        result = RandomSearch().align(context, rng)
        assert len(result.measured_pairs()) == total


class TestScanSearch:
    def test_spends_exact_budget(self, small_channel, tx_codebook, rx_codebook, rng):
        context = _context(small_channel, tx_codebook, rx_codebook, rng, 30)
        result = ScanSearch().align(context, rng)
        assert result.measurements_used == 30

    def test_adjacent_hops(self, small_channel, tx_codebook, rx_codebook, rng):
        """Consecutive scan pairs advance both snake walks by one step."""
        context = _context(small_channel, tx_codebook, rx_codebook, rng, 20)
        result = ScanSearch().align(context, rng)
        tx_path = tx_codebook.snake_order(0)
        rx_path = rx_codebook.snake_order(0)
        pairs = [m.pair for m in result.trace]
        tx_positions = [tx_path.index(p.tx_index) for p in pairs]
        rx_positions = [rx_path.index(p.rx_index) for p in pairs]
        n_tx, n_rx = len(tx_path), len(rx_path)
        for a, b in zip(tx_positions, tx_positions[1:]):
            assert (b - a) % n_tx == 1
        for a, b in zip(rx_positions, rx_positions[1:]):
            assert (b - a) % n_rx == 1

    def test_full_budget_measures_every_pair(
        self, small_channel, tx_codebook, rx_codebook, rng
    ):
        """Scan at search rate 1.0 is exhaustive search."""
        total = tx_codebook.num_beams * rx_codebook.num_beams
        context = _context(small_channel, tx_codebook, rx_codebook, rng, total)
        result = ScanSearch().align(context, rng)
        assert result.measurements_used == total
        assert len(result.measured_pairs()) == total

    def test_no_repeats_past_cycle(self, small_channel, tx_codebook, rx_codebook, rng):
        """Budget beyond lcm(|U|, |V|) still yields distinct pairs."""
        limit = 60  # lcm(4, 18) = 36 < 60
        context = _context(small_channel, tx_codebook, rx_codebook, rng, limit)
        result = ScanSearch().align(context, rng)
        pairs = [m.pair for m in result.trace]
        assert len(set(pairs)) == limit

class TestGenie:
    def test_selects_true_optimum(self, small_channel, tx_codebook, rx_codebook, rng):
        context = _context(small_channel, tx_codebook, rx_codebook, rng, 5)
        result = GenieAligner(small_channel).align(context, rng)
        snr = small_channel.mean_snr_matrix(tx_codebook, rx_codebook)
        assert loss_from_matrix_db(snr, result.selected) == pytest.approx(0.0)

    def test_single_measurement(self, small_channel, tx_codebook, rx_codebook, rng):
        context = _context(small_channel, tx_codebook, rx_codebook, rng, 5)
        result = GenieAligner(small_channel).align(context, rng)
        assert result.measurements_used == 1


class TestHierarchicalSearch:
    def test_runs_within_budget(self, small_channel, tx_codebook, rx_codebook, rng):
        context = _context(small_channel, tx_codebook, rx_codebook, rng, 60)
        result = HierarchicalSearch().align(context, rng)
        assert result.measurements_used <= 60
        assert result.selected is not None

    def test_reasonable_outcome_at_high_snr(
        self, small_channel, tx_codebook, rx_codebook
    ):
        """With long dwells the descent should land near the optimum."""
        total = tx_codebook.num_beams * rx_codebook.num_beams
        engine = MeasurementEngine(
            small_channel, np.random.default_rng(2), fading_blocks=200
        )
        context = AlignmentContext(
            tx_codebook,
            rx_codebook,
            engine,
            MeasurementBudget(total_pairs=total, limit=total),
        )
        result = HierarchicalSearch().align(context, np.random.default_rng(3))
        snr = small_channel.mean_snr_matrix(tx_codebook, rx_codebook)
        assert loss_from_matrix_db(snr, result.selected) < 10.0

    def test_uses_fewer_measurements_than_exhaustive(
        self, small_channel, tx_codebook, rx_codebook, rng
    ):
        total = tx_codebook.num_beams * rx_codebook.num_beams
        context = _context(small_channel, tx_codebook, rx_codebook, rng, total)
        result = HierarchicalSearch().align(context, rng)
        assert result.measurements_used < total


class TestLocalRefine:
    def test_spends_budget(self, small_channel, tx_codebook, rx_codebook, rng):
        context = _context(small_channel, tx_codebook, rx_codebook, rng, 30)
        result = LocalRefineSearch().align(context, rng)
        assert result.measurements_used == 30

    def test_coarse_fraction_validation(self):
        with pytest.raises(Exception):
            LocalRefineSearch(coarse_fraction=1.5)

    def test_distinct_pairs(self, small_channel, tx_codebook, rx_codebook, rng):
        context = _context(small_channel, tx_codebook, rx_codebook, rng, 50)
        result = LocalRefineSearch().align(context, rng)
        pairs = [m.pair for m in result.trace]
        assert len(set(pairs)) == len(pairs)

    def test_full_budget(self, small_channel, tx_codebook, rx_codebook, rng):
        total = tx_codebook.num_beams * rx_codebook.num_beams
        context = _context(small_channel, tx_codebook, rx_codebook, rng, total)
        result = LocalRefineSearch().align(context, rng)
        assert result.measurements_used == total

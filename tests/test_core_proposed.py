"""Tests for the proposed alignment scheme (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import AlignmentContext
from repro.core.proposed import ProposedAlignment
from repro.estimation.sample_covariance import BackProjectionEstimator
from repro.exceptions import ValidationError
from repro.measurement.budget import MeasurementBudget
from repro.measurement.measurer import MeasurementEngine


def _context(small_channel, tx_codebook, rx_codebook, rng, limit):
    engine = MeasurementEngine(small_channel, rng, fading_blocks=4)
    budget = MeasurementBudget(
        total_pairs=tx_codebook.num_beams * rx_codebook.num_beams, limit=limit
    )
    return AlignmentContext(tx_codebook, rx_codebook, engine, budget)


class TestConstruction:
    def test_invalid_j(self):
        with pytest.raises(ValidationError):
            ProposedAlignment(measurements_per_slot=0)

    def test_invalid_threshold(self):
        with pytest.raises(ValidationError):
            ProposedAlignment(signal_threshold=-1.0)

    def test_invalid_exploration(self):
        with pytest.raises(ValidationError):
            ProposedAlignment(exploration=1.5)


class TestSlotStructure:
    def test_budget_fully_spent(self, small_channel, tx_codebook, rx_codebook, rng):
        context = _context(small_channel, tx_codebook, rx_codebook, rng, limit=30)
        result = ProposedAlignment(measurements_per_slot=8).align(context, rng)
        assert result.measurements_used == 30

    def test_slot_sizes_respected(self, small_channel, tx_codebook, rx_codebook, rng):
        context = _context(small_channel, tx_codebook, rx_codebook, rng, limit=20)
        result = ProposedAlignment(measurements_per_slot=8).align(context, rng)
        # 20 = 8 + 8 + 4: three slots.
        assert len(result.slots) == 3
        sizes = [
            len(s.probe_rx_beams) + (1 if s.decided_rx_beam is not None else 0)
            for s in result.slots
        ]
        assert sizes == [8, 8, 4]

    def test_one_tx_beam_per_slot(self, small_channel, tx_codebook, rx_codebook, rng):
        context = _context(small_channel, tx_codebook, rx_codebook, rng, limit=24)
        result = ProposedAlignment(measurements_per_slot=8).align(context, rng)
        for slot in result.slots:
            tx_beams = {
                m.pair.tx_index
                for m in result.trace
                if m.slot == slot.slot and m.pair is not None
            }
            assert tx_beams == {slot.tx_beam}

    def test_no_repeated_pairs(self, small_channel, tx_codebook, rx_codebook, rng):
        context = _context(small_channel, tx_codebook, rx_codebook, rng, limit=40)
        result = ProposedAlignment().align(context, rng)
        pairs = [m.pair for m in result.trace]
        assert len(pairs) == len(set(pairs))

    def test_decided_beam_not_in_probes(self, small_channel, tx_codebook, rx_codebook, rng):
        context = _context(small_channel, tx_codebook, rx_codebook, rng, limit=32)
        result = ProposedAlignment().align(context, rng)
        for slot in result.slots:
            if slot.decided_rx_beam is not None:
                assert slot.decided_rx_beam not in slot.probe_rx_beams

    def test_full_budget_measures_everything(self, small_channel, tx_codebook, rx_codebook, rng):
        total = tx_codebook.num_beams * rx_codebook.num_beams
        context = _context(small_channel, tx_codebook, rx_codebook, rng, limit=total)
        result = ProposedAlignment().align(context, rng)
        assert result.measurements_used == total
        assert len(result.measured_pairs()) == total


class TestTxBeamPick:
    """Random TX beams without repetition (Sec. IV-B2)."""

    def test_every_tx_beam_before_a_repeat(
        self, small_channel, tx_codebook, rx_codebook
    ):
        num_tx = tx_codebook.num_beams
        total = num_tx * rx_codebook.num_beams
        for seed in range(10):
            rng = np.random.default_rng(seed)
            context = _context(small_channel, tx_codebook, rx_codebook, rng, limit=total)
            result = ProposedAlignment(measurements_per_slot=8).align(context, rng)
            beams = [slot.tx_beam for slot in result.slots]
            assert len(beams) > num_tx  # the full budget needs repeats
            assert sorted(beams[:num_tx]) == list(range(num_tx))

    def test_tx_beams_reused_once_all_used(
        self, small_channel, tx_codebook, rx_codebook
    ):
        num_tx = tx_codebook.num_beams
        total = num_tx * rx_codebook.num_beams
        for seed in range(10):
            rng = np.random.default_rng(seed)
            context = _context(small_channel, tx_codebook, rx_codebook, rng, limit=total)
            result = ProposedAlignment(measurements_per_slot=8).align(context, rng)
            later = [slot.tx_beam for slot in result.slots[num_tx:]]
            assert later
            assert all(0 <= beam < num_tx for beam in later)
            assert result.measurements_used == total

    def test_first_beam_covers_codebook(self, small_channel, tx_codebook, rx_codebook):
        first = set()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            context = _context(small_channel, tx_codebook, rx_codebook, rng, limit=8)
            first.add(ProposedAlignment().align(context, rng).slots[0].tx_beam)
        assert first == set(range(tx_codebook.num_beams))


class TestBehaviour:
    def test_finds_good_pair_with_generous_budget(
        self, small_channel, tx_codebook, rx_codebook, rng
    ):
        from repro.sim.metrics import loss_from_matrix_db

        snr = small_channel.mean_snr_matrix(tx_codebook, rx_codebook)
        context = _context(small_channel, tx_codebook, rx_codebook, rng, limit=50)
        result = ProposedAlignment().align(context, rng)
        assert loss_from_matrix_db(snr, result.selected) < 6.0

    def test_custom_estimator_factory(self, small_channel, tx_codebook, rx_codebook, rng):
        context = _context(small_channel, tx_codebook, rx_codebook, rng, limit=16)
        algo = ProposedAlignment(estimator_factory=BackProjectionEstimator)
        result = algo.align(context, rng)
        assert result.measurements_used == 16

    def test_tiny_budget_single_measurement(
        self, small_channel, tx_codebook, rx_codebook, rng
    ):
        context = _context(small_channel, tx_codebook, rx_codebook, rng, limit=1)
        result = ProposedAlignment().align(context, rng)
        assert result.measurements_used == 1
        assert result.selected is not None

    def test_j_one_degenerates_gracefully(
        self, small_channel, tx_codebook, rx_codebook, rng
    ):
        """J=1: no probes, every slot is a single (random) measurement."""
        context = _context(small_channel, tx_codebook, rx_codebook, rng, limit=10)
        result = ProposedAlignment(measurements_per_slot=1).align(context, rng)
        assert result.measurements_used == 10

    def test_deterministic_given_rng(self, small_channel, tx_codebook, rx_codebook):
        results = []
        for _ in range(2):
            context = _context(
                small_channel, tx_codebook, rx_codebook, np.random.default_rng(5), limit=24
            )
            result = ProposedAlignment().align(context, np.random.default_rng(6))
            results.append(result.selected)
        assert results[0] == results[1]

"""Tests for digital (full-vector) observations and the DigitalRx scheme."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.digital_rx import DigitalRxSearch
from repro.core.base import AlignmentContext
from repro.exceptions import ValidationError
from repro.measurement.budget import MeasurementBudget
from repro.measurement.digital import beam_powers_from_observations, observe_rx_vector
from repro.measurement.measurer import MeasurementEngine
from repro.sim.metrics import loss_from_matrix_db


@pytest.fixture
def tx_beam(tx_codebook):
    return tx_codebook.beam(0)


class TestObserveRxVector:
    def test_shape(self, small_channel, tx_beam, rng):
        observations = observe_rx_vector(small_channel, tx_beam, rng, fading_blocks=5)
        assert observations.shape == (5, 8)

    def test_statistics_match_covariance(self, small_channel, tx_beam, rng):
        """E[y y^H] == Q_u + I / gamma."""
        observations = observe_rx_vector(
            small_channel, tx_beam, rng, fading_blocks=20000
        )
        empirical = observations.T @ observations.conj() / observations.shape[0]
        expected = small_channel.rx_covariance(tx_beam) + 0.01 * np.eye(8)
        assert np.linalg.norm(empirical - expected) / np.linalg.norm(expected) < 0.1

    def test_validation(self, small_channel, tx_beam, rng):
        with pytest.raises(ValidationError):
            observe_rx_vector(small_channel, tx_beam, rng, fading_blocks=0)
        with pytest.raises(ValidationError):
            observe_rx_vector(small_channel, np.ones(4, dtype=complex), rng)


class TestBeamPowers:
    def test_matches_manual_projection(self, small_channel, tx_beam, rx_codebook, rng):
        observations = observe_rx_vector(small_channel, tx_beam, rng, fading_blocks=4)
        powers = beam_powers_from_observations(observations, rx_codebook.vectors)
        manual = np.mean(
            np.abs(observations.conj() @ rx_codebook.vectors) ** 2, axis=0
        )
        np.testing.assert_allclose(powers, manual)

    def test_agrees_with_analog_engine_in_expectation(
        self, small_channel, tx_codebook, rx_codebook
    ):
        """Software beamforming on digital observations has the same mean
        as analog dwells on the same pair."""
        rng = np.random.default_rng(0)
        tx_beam = tx_codebook.beam(1)
        observations = observe_rx_vector(small_channel, tx_beam, rng, fading_blocks=8000)
        digital = beam_powers_from_observations(
            observations, rx_codebook.vectors[:, [4]]
        )[0]
        engine = MeasurementEngine(small_channel, np.random.default_rng(1))
        analog_mean = engine.expected_power(tx_beam, rx_codebook.beam(4))
        assert digital == pytest.approx(analog_mean, rel=0.08)

    def test_shape_validation(self, rng):
        with pytest.raises(ValidationError):
            beam_powers_from_observations(np.ones((3, 4)), np.ones((5, 2)))


class TestDigitalRxSearch:
    def _context(self, small_channel, tx_codebook, rx_codebook, rng, limit):
        engine = MeasurementEngine(small_channel, rng, fading_blocks=4)
        budget = MeasurementBudget(
            total_pairs=tx_codebook.num_beams * rx_codebook.num_beams, limit=limit
        )
        return AlignmentContext(tx_codebook, rx_codebook, engine, budget)

    def test_budget_respected(self, small_channel, tx_codebook, rx_codebook, rng):
        context = self._context(small_channel, tx_codebook, rx_codebook, rng, 5)
        result = DigitalRxSearch().align(context, rng)
        assert result.measurements_used <= 5

    def test_strong_quality_with_one_dwell_per_tx(
        self, small_channel, tx_codebook, rx_codebook, rng
    ):
        """|U| + 1 budget units suffice to get near the optimum."""
        limit = tx_codebook.num_beams + 1
        context = self._context(small_channel, tx_codebook, rx_codebook, rng, limit)
        result = DigitalRxSearch(fading_blocks=64).align(context, rng)
        snr = small_channel.mean_snr_matrix(tx_codebook, rx_codebook)
        assert loss_from_matrix_db(snr, result.selected) < 2.0

    def test_tiny_budget(self, small_channel, tx_codebook, rx_codebook, rng):
        context = self._context(small_channel, tx_codebook, rx_codebook, rng, 1)
        result = DigitalRxSearch().align(context, rng)
        assert result.measurements_used == 1
        assert result.selected is not None

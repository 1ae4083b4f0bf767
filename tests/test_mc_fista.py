"""Tests for the FISTA nuclear-norm solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.mc.fista import fista_nuclear
from repro.mc.operators import QuadraticFormOperator
from repro.utils.linalg import random_psd


class TestFistaWithQuadraticForms:
    def test_psd_constrained_recovery(self, rng):
        """Recover a low-rank covariance from many noiseless quadratic samples."""
        n, m = 8, 120
        truth = random_psd(n, 2, rng, scale=4.0)
        probes = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        probes /= np.linalg.norm(probes, axis=0)
        operator = QuadraticFormOperator(probes)
        observations = operator.apply(truth)
        result = fista_nuclear(
            operator, observations, mu=1e-4, max_iterations=2000, tolerance=1e-10
        )
        assert np.linalg.norm(result.solution - truth) / np.linalg.norm(truth) < 0.1

    def test_psd_output(self, rng):
        n, m = 6, 10
        probes = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        operator = QuadraticFormOperator(probes)
        observations = np.abs(rng.normal(size=m))
        result = fista_nuclear(operator, observations, mu=0.01)
        eigenvalues = np.linalg.eigvalsh(result.solution)
        assert np.min(eigenvalues) >= -1e-9

    def test_wrong_observation_shape(self, rng):
        operator = QuadraticFormOperator(np.ones((4, 3), dtype=complex))
        with pytest.raises(ValidationError):
            fista_nuclear(operator, np.ones(5), mu=0.1)

    def test_initial_must_match_shape(self, rng):
        operator = QuadraticFormOperator(np.ones((4, 3), dtype=complex))
        with pytest.raises(ValidationError):
            fista_nuclear(operator, np.ones(3), mu=0.1, initial=np.eye(5))

    def test_negative_mu(self, rng):
        operator = QuadraticFormOperator(np.ones((4, 3), dtype=complex))
        with pytest.raises(ValidationError):
            fista_nuclear(operator, np.ones(3), mu=-0.1)

    def test_warm_start_used(self, rng):
        """Warm-starting at the solution converges immediately."""
        n, m = 6, 60
        truth = random_psd(n, 1, rng)
        probes = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        probes /= np.linalg.norm(probes, axis=0)
        operator = QuadraticFormOperator(probes)
        observations = operator.apply(truth)
        result = fista_nuclear(
            operator, observations, mu=0.0, initial=truth, max_iterations=5
        )
        assert np.linalg.norm(result.solution - truth) / np.linalg.norm(truth) < 1e-6

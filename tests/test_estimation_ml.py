"""Tests for the penalized-ML covariance estimator (Eq. 23)."""

from __future__ import annotations

import signal
from contextlib import contextmanager

import numpy as np
import pytest

from repro.estimation.likelihood import expected_powers
import repro.estimation.ml_covariance as ml_covariance
from repro.estimation.ml_covariance import MlCovarianceEstimator, estimate_ml_covariance
from repro.exceptions import ValidationError
from repro.mc.operators import QuadraticFormOperator
from repro.utils.linalg import dominant_eigenvector, random_psd, unit_norm


def _measurement_setup(rng, n=8, m=64, rank=1, noise=0.01):
    probes = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    probes /= np.linalg.norm(probes, axis=0)
    operator = QuadraticFormOperator(probes)
    truth = random_psd(n, rank, rng, scale=float(n))
    lambdas = expected_powers(truth, operator, noise)
    powers = lambdas * rng.exponential(size=m)
    return probes, truth, powers


class TestSolver:
    def test_psd_output(self, rng):
        probes, _, powers = _measurement_setup(rng)
        result = estimate_ml_covariance(probes, powers, 0.01)
        values = np.linalg.eigvalsh(result.solution)
        assert np.min(values) >= -1e-9

    def test_hermitian_output(self, rng):
        probes, _, powers = _measurement_setup(rng)
        q = estimate_ml_covariance(probes, powers, 0.01).solution
        np.testing.assert_allclose(q, q.conj().T, atol=1e-10)

    def test_objective_monotone(self, rng):
        probes, _, powers = _measurement_setup(rng)
        result = estimate_ml_covariance(probes, powers, 0.01, max_iterations=30)
        history = result.history
        assert all(b <= a + 1e-8 for a, b in zip(history, history[1:]))

    def test_dominant_direction_recovered(self, rng):
        """With many exact-model measurements, the top eigenvector of the
        estimate aligns with the true one — the only thing Algorithm 1
        needs from the estimator."""
        probes, truth, powers = _measurement_setup(rng, n=8, m=256, rank=1)
        result = estimate_ml_covariance(probes, powers, 0.01, mu=0.01, max_iterations=100)
        true_vec = dominant_eigenvector(truth)
        est_vec = dominant_eigenvector(result.solution)
        assert abs(np.vdot(true_vec, est_vec)) > 0.9

    def test_subspace_matches_full(self, rng):
        """The subspace reduction must not change the solution."""
        probes, _, powers = _measurement_setup(rng, n=10, m=5)
        fast = estimate_ml_covariance(
            probes, powers, 0.01, subspace=True, max_iterations=60
        )
        slow = estimate_ml_covariance(
            probes, powers, 0.01, subspace=False, max_iterations=60
        )
        assert np.linalg.norm(fast.solution - slow.solution) <= 0.05 * max(
            1.0, np.linalg.norm(slow.solution)
        )

    def test_large_mu_shrinks(self, rng):
        probes, _, powers = _measurement_setup(rng)
        small = estimate_ml_covariance(probes, powers, 0.01, mu=0.001)
        large = estimate_ml_covariance(probes, powers, 0.01, mu=100.0)
        assert np.real(np.trace(large.solution)) < np.real(np.trace(small.solution))

    def test_warm_start_initial(self, rng):
        probes, truth, powers = _measurement_setup(rng)
        result = estimate_ml_covariance(probes, powers, 0.01, initial=truth)
        assert result.solution.shape == truth.shape

    def test_noise_only_estimate_small(self, rng):
        """Pure-noise measurements yield a near-zero estimate (the input
        to the detection-floor logic of the proposed scheme)."""
        n, m, noise = 8, 7, 0.01
        probes = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        probes /= np.linalg.norm(probes, axis=0)
        powers = noise * rng.exponential(size=m)
        result = estimate_ml_covariance(probes, powers, noise)
        assert float(np.real(np.trace(result.solution))) < 5 * noise


def _serial_solve(probes, powers, **controls):
    return estimate_ml_covariance(probes, powers, 0.01, **controls)


@contextmanager
def _deadline(seconds):
    """Turn a hang into a failure: raise if the block runs past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("solve", [_serial_solve], ids=["serial"])
class TestStepControls:
    """Bad step controls fail once at entry instead of hanging or
    returning a solve that never took a step."""

    def test_backtrack_one_fails_fast(self, rng, solve):
        probes, _, powers = _measurement_setup(rng, m=7)
        with _deadline(5.0), pytest.raises(ValidationError, match="backtrack"):
            solve(probes, powers, backtrack=1.0)

    def test_backtrack_zero_rejected(self, rng, solve):
        probes, _, powers = _measurement_setup(rng, m=7)
        with pytest.raises(ValidationError, match="backtrack"):
            solve(probes, powers, backtrack=0.0)

    def test_nonpositive_initial_step_rejected(self, rng, solve):
        probes, _, powers = _measurement_setup(rng, m=7)
        with pytest.raises(ValidationError, match="initial_step"):
            solve(probes, powers, initial_step=0.0)

    def test_min_step_above_initial_step_rejected(self, rng, solve):
        probes, _, powers = _measurement_setup(rng, m=7)
        with pytest.raises(ValidationError, match="min_step"):
            solve(probes, powers, initial_step=0.5, min_step=1.0)

    def test_nonpositive_min_step_rejected(self, rng, solve):
        probes, _, powers = _measurement_setup(rng, m=7)
        with pytest.raises(ValidationError, match="min_step"):
            solve(probes, powers, min_step=0.0)

    def test_zero_max_iterations_rejected(self, rng, solve):
        probes, _, powers = _measurement_setup(rng, m=7)
        with pytest.raises(ValidationError, match="max_iterations"):
            solve(probes, powers, max_iterations=0)

    def test_negative_tolerance_rejected(self, rng, solve):
        probes, _, powers = _measurement_setup(rng, m=7)
        with pytest.raises(ValidationError, match="tolerance"):
            solve(probes, powers, tolerance=-1e-3)

    def test_boundary_controls_accepted(self, rng, solve):
        probes, _, powers = _measurement_setup(rng, m=7)
        solve(probes, powers, max_iterations=1, tolerance=0.0, min_step=1.0)


def _solver_fingerprint(result):
    """Everything a SolverResult carries, hashable and byte-exact."""
    eig = None
    if result.solution_eig is not None:
        values, vectors = result.solution_eig
        eig = (values.tobytes(), vectors.tobytes())
    return (
        result.solution.tobytes(),
        result.iterations,
        result.converged,
        result.objective,
        tuple(result.history),
        eig,
    )


class TestEighFallback:
    def test_gufunc_absent_fallback(self, rng, monkeypatch):
        """Without the numpy-internal eigh gufunc the prox falls back to
        the public ``np.linalg.eigh``, bit-identically, cold and warm."""
        probes, _, powers = _measurement_setup(rng, n=12, m=9, rank=2)
        initial = random_psd(12, 3, rng)

        def solves():
            return [
                _solver_fingerprint(estimate_ml_covariance(probes, powers, 0.01)),
                _solver_fingerprint(
                    estimate_ml_covariance(probes, powers, 0.01, initial=initial)
                ),
            ]

        expected = solves()
        monkeypatch.setattr(ml_covariance, "_EIGH_LOWER", None)
        assert solves() == expected


class TestEstimatorObject:
    def test_estimate_and_warm_start(self, rng):
        probes, _, powers = _measurement_setup(rng, m=12)
        estimator = MlCovarianceEstimator()
        first = estimator.estimate(probes[:, :6], powers[:6], 0.01)
        assert estimator.warm_start is not None
        second = estimator.estimate(probes[:, 6:], powers[6:], 0.01)
        assert second.shape == first.shape

    def test_reset(self, rng):
        probes, _, powers = _measurement_setup(rng, m=6)
        estimator = MlCovarianceEstimator()
        estimator.estimate(probes, powers, 0.01)
        estimator.reset()
        assert estimator.warm_start is None

    def test_input_validation(self):
        estimator = MlCovarianceEstimator()
        with pytest.raises(Exception):
            estimator.estimate(np.ones((4, 3)), np.ones(2), 0.01)

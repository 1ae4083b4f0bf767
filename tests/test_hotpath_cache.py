"""Hot-path cache suite: exactness, invalidation, and determinism.

The performance layer added around the simulation hot path — the
codebook gain cache, the warm-started ML solves, and the batched
trial engine — is only admissible because it is *exact*: a cache hit
returns the bytes a fresh evaluation would, and a reused basis changes
nothing but the cost. This module pins that guarantee down, alongside
unit tests of the cache bookkeeping itself.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.arrays.codebook import CodebookGainCache
from repro.estimation.ml_covariance import MlCovarianceEstimator, estimate_ml_covariance
from repro.exceptions import ValidationError
from repro.measurement.budget import MeasurementBudget
from repro.sim.runner import run_trials, standard_schemes
from repro.utils.linalg import quadratic_forms, random_psd


def _outcome_fingerprint(trials):
    """Everything that must be invariant across repeated runs."""
    return [
        (
            name,
            outcome.loss_db,
            outcome.result.selected,
            outcome.result.measurements_used,
            outcome.result.selected_power,
        )
        for trial in trials
        for name, outcome in trial.items()
    ]


def _frozen_psd(size: int, rank: int, seed: int) -> np.ndarray:
    """A read-only PSD matrix, as the ML estimator hands its outputs out."""
    matrix = random_psd(size, rank, np.random.default_rng(seed))
    matrix.setflags(write=False)
    return matrix


# ----------------------------------------------------------------------
# CodebookGainCache unit tests
# ----------------------------------------------------------------------


class TestCodebookGainCache:
    @pytest.fixture()
    def vectors(self, rx_codebook):
        return rx_codebook.vectors

    def test_hit_returns_identical_array(self, vectors):
        cache = CodebookGainCache(vectors)
        q = _frozen_psd(vectors.shape[0], 2, seed=7)
        first = cache.gains(q)
        second = cache.gains(q)
        assert second is first
        assert cache.hits == 1 and cache.misses == 1

    def test_result_matches_uncached_bitwise(self, vectors):
        cache = CodebookGainCache(vectors)
        q = _frozen_psd(vectors.shape[0], 2, seed=7)
        cached = cache.gains(q)
        raw = quadratic_forms(q, vectors)
        assert cached.tobytes() == raw.tobytes()

    def test_result_is_read_only(self, vectors):
        cache = CodebookGainCache(vectors)
        gains = cache.gains(_frozen_psd(vectors.shape[0], 2, seed=7))
        assert not gains.flags.writeable
        with pytest.raises(ValueError):
            gains[0] = 0.0

    def test_writeable_covariance_rekeyed_after_mutation(self, vectors):
        """In-place mutation must never serve a stale evaluation."""
        cache = CodebookGainCache(vectors)
        q = random_psd(vectors.shape[0], 2, np.random.default_rng(7))
        before = cache.gains(q).copy()
        q *= 2.0
        after = cache.gains(q)
        assert cache.misses == 2 and cache.hits == 0
        np.testing.assert_allclose(after, 2.0 * before, rtol=1e-12)

    def test_writeable_covariance_equal_content_hits(self, vectors):
        """Distinct writeable arrays with equal bytes share one entry."""
        cache = CodebookGainCache(vectors)
        q1 = random_psd(vectors.shape[0], 2, np.random.default_rng(7))
        q2 = q1.copy()
        first = cache.gains(q1)
        second = cache.gains(q2)
        assert second is first
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction(self, vectors):
        cache = CodebookGainCache(vectors, capacity=2)
        covariances = [_frozen_psd(vectors.shape[0], 2, seed=s) for s in (1, 2, 3)]
        for q in covariances:
            cache.gains(q)
        assert len(cache) == 2 and cache.evictions == 1
        # Oldest entry evicted: re-evaluating it is a miss, newest is a hit.
        cache.gains(covariances[-1])
        assert cache.hits == 1
        cache.gains(covariances[0])
        assert cache.misses == 4

    def test_dead_identity_key_never_aliases(self, vectors):
        """A recycled id() cannot resurrect a dead array's entry."""
        cache = CodebookGainCache(vectors)
        q = _frozen_psd(vectors.shape[0], 2, seed=7)
        key = cache._key(q)
        cache.gains(q)
        del q
        gc.collect()
        other = _frozen_psd(vectors.shape[0], 2, seed=8)
        assert not cache._valid_hit(key, other)

    def test_clear_drops_entries_keeps_counters(self, vectors):
        cache = CodebookGainCache(vectors)
        cache.gains(_frozen_psd(vectors.shape[0], 2, seed=7))
        cache.clear()
        assert len(cache) == 0 and cache.misses == 1

    def test_capacity_validation(self, vectors):
        with pytest.raises(ValidationError):
            CodebookGainCache(vectors, capacity=0)


class TestCodebookGains:
    @pytest.mark.parametrize("writeable", [False, True])
    def test_gains_match_quadratic_forms(self, rx_codebook, writeable):
        """A miss and a hit both return the exact uncached quadratic forms."""
        q = random_psd(rx_codebook.vectors.shape[0], 2, np.random.default_rng(11))
        q.setflags(write=writeable)
        expected = quadratic_forms(q, rx_codebook.vectors).tobytes()
        misses = rx_codebook.gain_cache.misses
        first = rx_codebook.gains(q)
        assert rx_codebook.gain_cache.misses == misses + 1
        hits = rx_codebook.gain_cache.hits
        second = rx_codebook.gains(q)
        assert rx_codebook.gain_cache.hits == hits + 1
        assert second is first
        assert first.tobytes() == expected

    def test_invalidation_through_codebook(self, rx_codebook):
        """Codebook.gains sees content changes."""
        q = random_psd(rx_codebook.vectors.shape[0], 2, np.random.default_rng(13))
        before = rx_codebook.gains(q).copy()
        q *= 3.0
        after = rx_codebook.gains(q)
        np.testing.assert_allclose(after, 3.0 * before, rtol=1e-12)


# ----------------------------------------------------------------------
# Warm-started ML estimator telemetry
# ----------------------------------------------------------------------


class TestEstimatorWarmStart:
    @pytest.fixture()
    def probe_setup(self, rx_codebook):
        rng = np.random.default_rng(17)
        indices = rng.choice(rx_codebook.num_beams, 3, replace=False)
        probes = rx_codebook.vectors[:, indices]
        powers = np.abs(rng.normal(size=3)) * 0.1 + 0.01
        return probes, powers

    def test_cold_then_warm_counters(self, probe_setup):
        probes, powers = probe_setup
        estimator = MlCovarianceEstimator()
        estimator.estimate(probes, powers, 0.01)
        assert estimator.cold_solves == 1 and estimator.warm_solves == 0
        estimator.estimate(probes, powers, 0.01)
        assert estimator.cold_solves == 1 and estimator.warm_solves == 1
        assert estimator.num_solves == 2
        assert estimator.iterations_saved >= 0.0

    def test_estimates_are_frozen(self, probe_setup):
        probes, powers = probe_setup
        solution = MlCovarianceEstimator().estimate(probes, powers, 0.01)
        assert not solution.flags.writeable

    def test_reset_forgets_warm_start(self, probe_setup):
        probes, powers = probe_setup
        estimator = MlCovarianceEstimator()
        estimator.estimate(probes, powers, 0.01)
        estimator.reset()
        assert estimator.warm_start is None
        estimator.estimate(probes, powers, 0.01)
        assert estimator.cold_solves == 2

    def test_external_warm_start_drops_stale_basis(self, probe_setup):
        """A hand-planted warm start must not reuse the old basis."""
        probes, powers = probe_setup
        estimator = MlCovarianceEstimator()
        first = estimator.estimate(probes, powers, 0.01)
        planted = np.array(first)  # new object, same values
        planted.setflags(write=False)
        estimator.warm_start = planted
        estimator.estimate(probes, powers, 0.01)
        assert estimator.warm_solves == 1  # still counted as warm

    def test_warm_solve_reuses_the_previous_basis(self, probe_setup):
        """A warm solve is ``estimate_ml_covariance`` from the previous
        estimate and its lifted eigendecomposition, bit for bit, and the
        reuse only saves the eigendecomposition: recomputing it gives the
        same estimate to solver precision."""
        probes, powers = probe_setup
        estimator = MlCovarianceEstimator()
        estimator.estimate(probes, powers, 0.01)
        previous = estimator.last_result
        reused = estimator.estimate(probes, powers, 0.01)
        exact = estimate_ml_covariance(
            probes,
            powers,
            0.01,
            initial=previous.solution,
            initial_eig=previous.solution_eig,
        )
        assert reused.tobytes() == exact.solution.tobytes()
        recomputed = estimate_ml_covariance(
            probes, powers, 0.01, initial=previous.solution, initial_eig=None
        )
        np.testing.assert_allclose(reused, recomputed.solution, rtol=1e-6, atol=1e-9)


# ----------------------------------------------------------------------
# Shared scenario context
# ----------------------------------------------------------------------


class TestScenarioContext:
    def test_total_pairs_from_codebooks(self, small_scenario):
        assert small_scenario.context().total_pairs == (
            small_scenario.tx_codebook.num_beams * small_scenario.rx_codebook.num_beams
        )

    def test_scenario_context_is_shared(self, small_scenario):
        assert small_scenario.context() is small_scenario.context()

    def test_make_budget_matches_search_rate(self, small_scenario):
        context = small_scenario.context()
        budget = context.make_budget(0.3)
        expected = MeasurementBudget.from_search_rate(context.total_pairs, 0.3)
        assert (budget.total_pairs, budget.limit) == (
            expected.total_pairs,
            expected.limit,
        )


# ----------------------------------------------------------------------
# End-to-end determinism regressions
# ----------------------------------------------------------------------


class TestDeterminism:
    def test_repeat_runs_share_cached_context(self, small_scenario):
        """Back-to-back runs reuse the warm context without drifting."""
        schemes = standard_schemes(measurements_per_slot=4)
        first = run_trials(small_scenario, schemes, 0.3, 2, base_seed=22)
        second = run_trials(
            small_scenario, standard_schemes(measurements_per_slot=4), 0.3, 2,
            base_seed=22,
        )
        assert _outcome_fingerprint(first) == _outcome_fingerprint(second)

"""Tests for repro.utils.rng."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import complex_normal, spawn, trial_generator


class TestSpawn:
    def test_count(self, rng):
        assert len(spawn(rng, 5)) == 5

    def test_children_independent_streams(self, rng):
        a, b = spawn(rng, 2)
        assert not np.array_equal(a.integers(0, 10**9, 16), b.integers(0, 10**9, 16))

    def test_spawn_stable_under_extension(self):
        """Adding a consumer must not change earlier children's draws."""
        first = spawn(np.random.default_rng(7), 2)
        second = spawn(np.random.default_rng(7), 3)
        np.testing.assert_array_equal(
            first[0].integers(0, 10**9, 8), second[0].integers(0, 10**9, 8)
        )


class TestTrialGenerator:
    def test_deterministic(self):
        a = trial_generator(1, 3).integers(0, 10**9, 4)
        b = trial_generator(1, 3).integers(0, 10**9, 4)
        np.testing.assert_array_equal(a, b)

    def test_distinct_trials(self):
        a = trial_generator(1, 3).integers(0, 10**9, 8)
        b = trial_generator(1, 4).integers(0, 10**9, 8)
        assert not np.array_equal(a, b)

    def test_distinct_seeds(self):
        a = trial_generator(1, 3).integers(0, 10**9, 8)
        b = trial_generator(2, 3).integers(0, 10**9, 8)
        assert not np.array_equal(a, b)


class TestComplexNormal:
    def test_shape(self, rng):
        assert complex_normal(rng, (3, 4)).shape == (3, 4)

    def test_scalar_shape(self, rng):
        assert complex_normal(rng, ()).shape == ()

    def test_variance_convention(self, rng):
        """E[|x|^2] == variance, split evenly between re/im."""
        samples = complex_normal(rng, 200_000, variance=2.5)
        assert np.mean(np.abs(samples) ** 2) == pytest.approx(2.5, rel=0.02)
        assert np.var(samples.real) == pytest.approx(1.25, rel=0.03)

    def test_zero_mean(self, rng):
        samples = complex_normal(rng, 100_000)
        assert abs(np.mean(samples)) < 0.02

    def test_is_complex(self, rng):
        assert np.iscomplexobj(complex_normal(rng, 5))

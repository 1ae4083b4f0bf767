"""Unit and property tests for repro.utils.linalg."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.utils.linalg import (
    db_to_linear,
    dominant_eigenvector,
    effective_rank,
    eigh_sorted,
    energy_fraction,
    hermitian,
    linear_to_db,
    nuclear_norm,
    project_psd,
    quadratic_forms,
    random_psd,
    soft_threshold_eigenvalues,
    unit_norm,
)


def _random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return hermitian(a)


class TestHermitian:
    def test_idempotent(self, rng):
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h = hermitian(a)
        np.testing.assert_allclose(h, hermitian(h))

    def test_result_is_hermitian(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = hermitian(a)
        np.testing.assert_array_equal(h, h.conj().T)

    def test_preserves_hermitian_input(self, rng):
        h = _random_hermitian(rng, 6)
        np.testing.assert_allclose(hermitian(h), h)


class TestEighSorted:
    def test_descending_order(self, rng):
        values, _ = eigh_sorted(_random_hermitian(rng, 8))
        assert np.all(np.diff(values) <= 1e-12)

    def test_reconstruction(self, rng):
        h = _random_hermitian(rng, 6)
        values, vectors = eigh_sorted(h)
        np.testing.assert_allclose((vectors * values) @ vectors.conj().T, h, atol=1e-10)


class TestProjectPsd:
    def test_psd_output(self, rng):
        projected = project_psd(_random_hermitian(rng, 7))
        assert np.min(np.linalg.eigvalsh(projected)) >= -1e-10

    def test_identity_on_psd(self, rng):
        psd = random_psd(5, 3, rng)
        np.testing.assert_allclose(project_psd(psd), psd, atol=1e-10)

    def test_zeroes_negative_definite(self):
        np.testing.assert_allclose(project_psd(-np.eye(3)), np.zeros((3, 3)), atol=1e-12)

    def test_projection_is_closest_psd(self, rng):
        """Projection must beat any other PSD candidate in Frobenius distance."""
        h = _random_hermitian(rng, 5)
        projected = project_psd(h)
        candidate = random_psd(5, 2, rng)
        assert np.linalg.norm(h - projected) <= np.linalg.norm(h - candidate) + 1e-9


class TestSoftThreshold:
    def test_reduces_eigenvalues(self, rng):
        psd = random_psd(6, 4, rng, scale=6.0)
        out = soft_threshold_eigenvalues(psd, 0.1)
        before, _ = eigh_sorted(psd)
        after, _ = eigh_sorted(out)
        assert np.all(after <= before + 1e-10)

    def test_zero_threshold_projects_only(self, rng):
        psd = random_psd(5, 3, rng)
        np.testing.assert_allclose(soft_threshold_eigenvalues(psd, 0.0), psd, atol=1e-10)

    def test_large_threshold_gives_zero(self, rng):
        psd = random_psd(4, 2, rng)
        big = float(np.max(np.linalg.eigvalsh(psd))) + 1.0
        np.testing.assert_allclose(
            soft_threshold_eigenvalues(psd, big), np.zeros((4, 4)), atol=1e-10
        )

    def test_negative_threshold_rejected(self, rng):
        with pytest.raises(ValidationError):
            soft_threshold_eigenvalues(np.eye(3), -0.5)

    def test_exact_shrinkage_on_diagonal(self):
        out = soft_threshold_eigenvalues(np.diag([3.0, 1.0, 0.2]), 0.5)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(out)), [0.0, 0.5, 2.5], atol=1e-12)


class TestNorms:
    def test_nuclear_equals_trace_for_psd(self, rng):
        psd = random_psd(6, 3, rng)
        assert nuclear_norm(psd) == pytest.approx(float(np.real(np.trace(psd))), rel=1e-9)

    def test_spectral_leq_nuclear(self, rng):
        m = rng.normal(size=(5, 7))
        assert np.linalg.norm(m, 2) <= nuclear_norm(m) + 1e-12

    def test_unit_norm(self, rng):
        v = rng.normal(size=9) + 1j * rng.normal(size=9)
        assert np.linalg.norm(unit_norm(v)) == pytest.approx(1.0)

    def test_unit_norm_zero_vector(self):
        with pytest.raises(ValidationError):
            unit_norm(np.zeros(4))


class TestEffectiveRank:
    def test_full_rank_identity(self):
        assert effective_rank(np.eye(10), energy=0.95) == 10

    def test_rank_one(self, rng):
        psd = random_psd(8, 1, rng)
        assert effective_rank(psd) == 1

    def test_energy_fraction_monotone(self, rng):
        psd = random_psd(8, 5, rng)
        fractions = [energy_fraction(psd, k) for k in range(9)]
        assert all(b >= a - 1e-12 for a, b in zip(fractions, fractions[1:]))

    def test_energy_fraction_complete(self, rng):
        psd = random_psd(6, 6, rng)
        assert energy_fraction(psd, 6) == pytest.approx(1.0)

    def test_zero_matrix(self):
        assert effective_rank(np.zeros((4, 4))) == 0
        assert energy_fraction(np.zeros((4, 4)), 2) == 0.0

    def test_invalid_energy(self):
        with pytest.raises(ValidationError):
            effective_rank(np.eye(3), energy=1.5)

    def test_negative_dimensions(self):
        with pytest.raises(ValidationError):
            energy_fraction(np.eye(3), -1)


class TestDominantEigenvector:
    def test_matches_construction(self, rng):
        v = unit_norm(rng.normal(size=6) + 1j * rng.normal(size=6))
        q = 5.0 * np.outer(v, v.conj()) + 0.1 * np.eye(6)
        dominant = dominant_eigenvector(q)
        assert abs(np.vdot(dominant, v)) == pytest.approx(1.0, abs=1e-6)

    def test_unit_norm_output(self, rng):
        assert np.linalg.norm(dominant_eigenvector(random_psd(5, 3, rng))) == pytest.approx(1.0)


class TestQuadraticForms:
    def test_matches_loop(self, rng):
        q = random_psd(6, 3, rng)
        vectors = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        expected = [np.real(vectors[:, k].conj() @ q @ vectors[:, k]) for k in range(4)]
        np.testing.assert_allclose(quadratic_forms(q, vectors), expected, atol=1e-10)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValidationError):
            quadratic_forms(np.eye(3), np.ones((4, 2)))

    def test_nonnegative_for_psd(self, rng):
        q = random_psd(7, 4, rng)
        vectors = rng.normal(size=(7, 5)) + 1j * rng.normal(size=(7, 5))
        assert np.all(quadratic_forms(q, vectors) >= -1e-10)


class TestDbConversions:
    @pytest.mark.parametrize("db,linear", [(0.0, 1.0), (10.0, 10.0), (-10.0, 0.1), (3.0, 10**0.3)])
    def test_db_to_linear(self, db, linear):
        assert db_to_linear(db) == pytest.approx(linear)

    def test_roundtrip(self):
        for value in (0.01, 1.0, 123.4):
            assert db_to_linear(linear_to_db(value)) == pytest.approx(value)

    def test_zero_maps_to_neg_inf(self):
        assert linear_to_db(0.0) == -np.inf

    def test_array_input(self):
        out = linear_to_db(np.array([1.0, 10.0]))
        np.testing.assert_allclose(out, [0.0, 10.0])


class TestRandomPsd:
    def test_rank(self, rng):
        psd = random_psd(8, 3, rng)
        values = np.linalg.eigvalsh(psd)
        assert int(np.sum(values > 1e-9 * values.max())) == 3

    def test_zero_rank(self, rng):
        np.testing.assert_array_equal(random_psd(4, 0, rng), np.zeros((4, 4)))

    def test_invalid_rank(self, rng):
        with pytest.raises(ValidationError):
            random_psd(4, 5, rng)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 10), rank=st.integers(1, 10))
def test_property_psd_projection_fixed_point(seed, n, rank):
    """project_psd is a fixed point on PSD matrices of any size/rank."""
    rng = np.random.default_rng(seed)
    psd = random_psd(n, min(rank, n), rng)
    np.testing.assert_allclose(project_psd(psd), psd, atol=1e-8)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), threshold=st.floats(0.0, 5.0))
def test_property_soft_threshold_nuclear_contraction(seed, threshold):
    """Soft-thresholding never increases the nuclear norm."""
    rng = np.random.default_rng(seed)
    h = _random_hermitian(rng, 6)
    out = soft_threshold_eigenvalues(h, threshold)
    assert nuclear_norm(out) <= nuclear_norm(h) + 1e-8


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_property_quadratic_forms_linear_in_matrix(seed):
    """v^H (A + B) v == v^H A v + v^H B v."""
    rng = np.random.default_rng(seed)
    a = random_psd(5, 2, rng)
    b = random_psd(5, 3, rng)
    vectors = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    np.testing.assert_allclose(
        quadratic_forms(a + b, vectors),
        quadratic_forms(a, vectors) + quadratic_forms(b, vectors),
        atol=1e-9,
    )

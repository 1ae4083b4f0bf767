"""Tests for the quadratic-form operator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.mc.operators import QuadraticFormOperator
from repro.utils.linalg import random_psd


class TestQuadraticFormOperator:
    def test_apply_matches_loop(self, rng):
        probes = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        operator = QuadraticFormOperator(probes)
        q = random_psd(6, 3, rng)
        expected = [
            np.real(probes[:, j].conj() @ q @ probes[:, j]) for j in range(4)
        ]
        np.testing.assert_allclose(operator.apply(q), expected, atol=1e-10)

    def test_adjoint_matches_loop(self, rng):
        probes = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        operator = QuadraticFormOperator(probes)
        weights = rng.normal(size=3)
        expected = sum(
            w * np.outer(probes[:, j], probes[:, j].conj())
            for j, w in enumerate(weights)
        )
        np.testing.assert_allclose(operator.adjoint(weights), expected, atol=1e-10)

    def test_adjoint_is_true_adjoint(self, rng):
        """<A(Q), y> == <Q, A*(y)> under the real inner products."""
        probes = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
        operator = QuadraticFormOperator(probes)
        q = random_psd(5, 3, rng)
        y = rng.normal(size=4)
        lhs = float(operator.apply(q) @ y)
        rhs = float(np.real(np.vdot(operator.adjoint(y), q)))
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_lipschitz_bound(self, rng):
        probes = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        operator = QuadraticFormOperator(probes)
        bound = operator.lipschitz_bound()
        norms4 = np.sum(np.linalg.norm(probes, axis=0) ** 4)
        assert bound == pytest.approx(norms4)

    def test_dimensions(self, rng):
        operator = QuadraticFormOperator(np.ones((7, 2), dtype=complex))
        assert operator.dimension == 7
        assert operator.num_measurements == 2

    def test_shape_validation(self, rng):
        operator = QuadraticFormOperator(np.ones((4, 2), dtype=complex))
        with pytest.raises(ValidationError):
            operator.apply(np.eye(5))
        with pytest.raises(ValidationError):
            operator.adjoint(np.ones(3))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 8), m=st.integers(1, 6))
def test_property_quadratic_operator_psd_nonneg(seed, n, m):
    """A(Q) >= 0 entrywise for PSD Q."""
    rng = np.random.default_rng(seed)
    probes = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    operator = QuadraticFormOperator(probes)
    q = random_psd(n, max(1, n // 2), rng)
    assert np.all(operator.apply(q) >= -1e-9)

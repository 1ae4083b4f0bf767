"""Tests for repro.utils.validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.utils.validation import (
    check_index,
    check_nonnegative,
    check_positive,
    check_probability,
    check_unit_norm,
    check_vector,
    require,
)


class TestRequire:
    def test_passes(self):
        require(True, "never raised")

    def test_raises(self):
        with pytest.raises(ValidationError, match="boom"):
            require(False, "boom")


class TestScalars:
    def test_probability_bounds(self):
        assert check_probability(0.0) == 0.0
        assert check_probability(1.0) == 1.0
        with pytest.raises(ValidationError):
            check_probability(1.01)
        with pytest.raises(ValidationError):
            check_probability(-0.01)

    def test_positive(self):
        assert check_positive(2) == 2.0
        with pytest.raises(ValidationError):
            check_positive(0.0)

    def test_nonnegative(self):
        assert check_nonnegative(0.0) == 0.0
        with pytest.raises(ValidationError):
            check_nonnegative(-1e-9)


class TestArrays:
    def test_vector(self):
        v = check_vector(np.arange(4), length=4)
        assert v.shape == (4,)

    def test_vector_wrong_length(self):
        with pytest.raises(ValidationError):
            check_vector(np.arange(4), length=5)

    def test_vector_wrong_ndim(self):
        with pytest.raises(ValidationError):
            check_vector(np.ones((2, 2)))

    def test_unit_norm_accepts(self):
        check_unit_norm(np.array([1.0, 0.0, 0.0]))

    def test_unit_norm_rejects(self):
        with pytest.raises(ValidationError):
            check_unit_norm(np.array([1.0, 1.0]))


class TestIndex:
    def test_valid(self):
        assert check_index(3, 4) == 3

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            check_index(4, 4)
        with pytest.raises(ValidationError):
            check_index(-1, 4)

"""Tests for matrix-completion metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.mc.metrics import relative_error
from repro.utils.linalg import random_psd


class TestRelativeError:
    def test_exact_match(self, rng):
        truth = random_psd(5, 2, rng)
        assert relative_error(truth, truth) == 0.0

    def test_scaling(self, rng):
        truth = random_psd(5, 2, rng)
        assert relative_error(2 * truth, truth) == pytest.approx(1.0)

    def test_zero_truth(self):
        assert relative_error(np.ones((2, 2)), np.zeros((2, 2))) == pytest.approx(2.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            relative_error(np.eye(2), np.eye(3))

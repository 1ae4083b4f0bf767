"""Tests for covariance-structure analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.covariance import low_rank_summary
from repro.utils.linalg import random_psd


class TestLowRankSummary:
    def test_identity_spreads_energy(self):
        summary = low_rank_summary(np.eye(10))
        assert summary.dimension == 10
        assert summary.trace == pytest.approx(10.0)
        assert summary.effective_rank_95 == 10
        assert summary.energy_top1 == pytest.approx(0.1)

    def test_rank_one_concentrates(self, rng):
        q = random_psd(8, 1, rng)
        summary = low_rank_summary(q)
        assert summary.effective_rank_95 == 1
        assert summary.energy_top1 == pytest.approx(1.0)

    def test_ordering_of_fractions(self, rng):
        summary = low_rank_summary(random_psd(12, 6, rng))
        assert summary.energy_top1 <= summary.energy_top3 <= summary.energy_top5 <= 1.0

    def test_as_row_renders(self, rng):
        row = low_rank_summary(random_psd(6, 2, rng)).as_row()
        assert "rank95" in row and "top3" in row

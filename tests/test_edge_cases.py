"""Edge cases and cross-cutting details not covered elsewhere."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrays.codebook import Codebook
from repro.arrays.upa import UniformPlanarArray
from repro.exceptions import (
    BudgetExhaustedError,
    ConfigurationError,
    ExperimentError,
    ReproError,
    ValidationError,
)
from repro.utils.geometry import Direction


class TestExceptionHierarchy:
    @pytest.mark.parametrize(
        "exception",
        [
            ConfigurationError,
            ValidationError,
            BudgetExhaustedError,
            ExperimentError,
        ],
    )
    def test_all_derive_from_repro_error(self, exception):
        assert issubclass(exception, ReproError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise ValidationError("boom")


class TestCodebookExplicitVectors:
    def test_accepts_matching_unit_vectors(self):
        array = UniformPlanarArray(2, 2)
        directions = [Direction(0.0), Direction(0.5)]
        from repro.arrays.steering import steering_matrix

        vectors = steering_matrix(array, directions)
        codebook = Codebook(array, directions, (1, 2), vectors=vectors)
        np.testing.assert_allclose(codebook.vectors, vectors)

    def test_rejects_non_unit_vectors(self):
        array = UniformPlanarArray(2, 2)
        directions = [Direction(0.0)]
        with pytest.raises(ValidationError):
            Codebook(array, directions, (1, 1), vectors=np.ones((4, 1), dtype=complex))

    def test_rejects_shape_mismatch(self):
        array = UniformPlanarArray(2, 2)
        with pytest.raises(ValidationError):
            Codebook(array, [Direction(0.0)], (1, 2))

    def test_rejects_empty(self):
        array = UniformPlanarArray(2, 2)
        with pytest.raises(ValidationError):
            Codebook(array, [], (0, 0))


class TestCliSinglepath:
    def test_align_singlepath(self, capsys):
        from repro.cli import main

        assert main(["align", "--channel", "singlepath", "--rate", "0.05", "--seed", "2"]) == 0
        assert "Proposed" in capsys.readouterr().out


class TestBuildScenario:
    def test_channel_kinds(self):
        from repro.experiments.common import build_scenario
        from repro.sim.config import ChannelKind

        single = build_scenario(ChannelKind.SINGLEPATH, snr_db=10.0)
        assert single.config.snr_db == 10.0
        multi = build_scenario(ChannelKind.MULTIPATH)
        assert multi.total_pairs == 2304  # 16 x 144, the documented default


class TestSolverResultHistory:
    def test_history_matches_objective(self, rng):
        from repro.estimation.ml_covariance import estimate_ml_covariance

        probes = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        probes /= np.linalg.norm(probes, axis=0)
        powers = np.abs(rng.normal(size=4)) + 0.01
        result = estimate_ml_covariance(probes, powers, 0.01, max_iterations=20)
        assert result.history[-1] == pytest.approx(result.objective)
        assert len(result.history) >= 1

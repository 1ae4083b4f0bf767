"""Least-squares + nuclear-norm covariance estimation (ablation variant).

Replaces the exponential-power likelihood with the quadratic data-fit the
matrix-completion literature usually assumes:

``min_Q 0.5 * sum_j (w_j - 1/gamma - v_j^H Q v_j)^2 + mu ||Q||_*,  Q >= 0``

solved by the FISTA machinery of :mod:`repro.mc.fista`. Statistically
this mismodels the heavy-tailed exponential noise on ``w_j`` (each power
statistic has standard deviation equal to its mean), so the ML estimator
should — and in the ``abl-estimator`` benchmark does — guide beam
selection better at equal measurement budgets. It is retained both as the
ablation and as the honest representative of "apply matrix completion
directly".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.estimation.base import CovarianceEstimator
from repro.mc.fista import fista_nuclear
from repro.mc.operators import QuadraticFormOperator
from repro.utils.validation import check_nonnegative, check_positive

__all__ = ["LsCovarianceEstimator"]


@dataclass
class LsCovarianceEstimator(CovarianceEstimator):
    """Nuclear-norm-regularized least squares on debiased powers."""

    mu: float = 0.01
    max_iterations: int = 200
    tolerance: float = 1e-7
    warm_start: Optional[np.ndarray] = None

    def estimate(
        self,
        probes: np.ndarray,
        powers: np.ndarray,
        noise_variance: float,
    ) -> np.ndarray:
        self._check_inputs(probes, powers)
        check_nonnegative(self.mu, "mu")
        check_positive(noise_variance, "noise_variance")
        operator = QuadraticFormOperator(np.asarray(probes, dtype=complex))
        probe_norms = np.sum(np.abs(operator.probes) ** 2, axis=0)
        targets = np.asarray(powers, dtype=float) - noise_variance * probe_norms
        result = fista_nuclear(
            operator,
            targets,
            mu=self.mu,
            max_iterations=self.max_iterations,
            tolerance=self.tolerance,
            initial=self.warm_start,
        )
        self.warm_start = result.solution
        return result.solution

    def reset(self) -> None:
        """Forget the warm start (new channel / new alignment run)."""
        self.warm_start = None

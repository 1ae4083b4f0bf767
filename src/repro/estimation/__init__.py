"""Covariance estimation from beam power measurements (Eq. 14–26)."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_namespace

if TYPE_CHECKING:
    from repro.estimation.base import CovarianceEstimator
    from repro.estimation.likelihood import (
        expected_powers,
        negative_log_likelihood,
        nll_gradient,
        nll_value_and_gradient,
    )
    from repro.estimation.ls_covariance import LsCovarianceEstimator
    from repro.estimation.ml_covariance import (
        MlCovarianceEstimator,
        estimate_ml_covariance,
    )
    from repro.estimation.sample_covariance import BackProjectionEstimator

__all__ = [
    "CovarianceEstimator",
    "expected_powers",
    "negative_log_likelihood",
    "nll_gradient",
    "nll_value_and_gradient",
    "LsCovarianceEstimator",
    "MlCovarianceEstimator",
    "estimate_ml_covariance",
    "BackProjectionEstimator",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.estimation.base": ("CovarianceEstimator",),
        "repro.estimation.likelihood": (
            "expected_powers",
            "negative_log_likelihood",
            "nll_gradient",
            "nll_value_and_gradient",
        ),
        "repro.estimation.ls_covariance": ("LsCovarianceEstimator",),
        "repro.estimation.ml_covariance": (
            "MlCovarianceEstimator",
            "estimate_ml_covariance",
        ),
        "repro.estimation.sample_covariance": ("BackProjectionEstimator",),
    },
)

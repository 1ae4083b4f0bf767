"""Likelihood of power measurements under a spatial covariance.

Within a TX-slot the measurements ``z_j`` (RX beam ``v_j``) are
independent zero-mean complex Gaussians with variance

``lambda_j(Q) = v_j^H (Q + I / gamma) v_j``            (Eq. 14)

so the power statistics ``w_j = |z_j|^2`` are exponentially distributed
with mean ``lambda_j`` and the negative log-likelihood of the unknown
covariance ``Q`` is

``J(Q) = sum_j [ log lambda_j(Q) + w_j / lambda_j(Q) ]``   (Eq. 18/22)

with gradient ``sum_j (1/lambda_j - w_j / lambda_j^2) v_j v_j^H`` — every
term a rank-one update, which the quadratic-form operator evaluates in
one BLAS call.

All functions accept an optional ``offsets`` vector replacing the default
noise term ``noise_variance * ||v_j||^2``; the subspace-reduced solver
uses it because reducing the probes changes their norms while the
physical noise floor stays put.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.mc.operators import QuadraticFormOperator
from repro.utils.validation import check_positive

__all__ = [
    "expected_powers",
    "negative_log_likelihood",
    "nll_gradient",
    "nll_value_and_gradient",
]


def _validate(
    operator: QuadraticFormOperator,
    powers: np.ndarray,
    noise_variance: float,
    offsets: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    powers = np.asarray(powers, dtype=float)
    if powers.shape != (operator.num_measurements,):
        raise ValidationError(
            f"powers must have shape ({operator.num_measurements},), got {powers.shape}"
        )
    if np.any(powers < 0):
        raise ValidationError("powers must be >= 0 (they are |z|^2 statistics)")
    check_positive(noise_variance, "noise_variance")
    if offsets is None:
        probe_norms = np.sum(np.abs(operator.probes) ** 2, axis=0)
        offsets = noise_variance * probe_norms
    else:
        offsets = np.asarray(offsets, dtype=float)
        if offsets.shape != powers.shape:
            raise ValidationError(
                f"offsets must have shape {powers.shape}, got {offsets.shape}"
            )
        if np.any(offsets <= 0):
            raise ValidationError("offsets must be > 0 (they include the noise floor)")
    return powers, offsets


def expected_powers(
    covariance: np.ndarray,
    operator: QuadraticFormOperator,
    noise_variance: float,
    offsets: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``lambda_j = v_j^H Q v_j + offset_j`` (Eq. 14).

    The default offset is ``noise_variance * ||v_j||^2`` — exactly
    ``1 / gamma`` for the unit-norm probes used throughout the library.
    """
    _, offsets = _validate(
        operator, np.zeros(operator.num_measurements), noise_variance, offsets
    )
    return operator.apply(covariance) + offsets


def negative_log_likelihood(
    covariance: np.ndarray,
    operator: QuadraticFormOperator,
    powers: np.ndarray,
    noise_variance: float,
    offsets: Optional[np.ndarray] = None,
) -> float:
    """The NLL ``J(Q)`` of Eq. (22) (up to an additive constant)."""
    powers, offsets = _validate(operator, powers, noise_variance, offsets)
    lambdas = operator.apply(covariance) + offsets
    if np.any(lambdas <= 0):
        raise ValidationError("expected powers must be positive; is Q PSD?")
    return float(np.sum(np.log(lambdas) + powers / lambdas))


def nll_gradient(
    covariance: np.ndarray,
    operator: QuadraticFormOperator,
    powers: np.ndarray,
    noise_variance: float,
    offsets: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Gradient ``sum_j (1/lambda_j - w_j/lambda_j^2) v_j v_j^H`` of the NLL."""
    powers, offsets = _validate(operator, powers, noise_variance, offsets)
    lambdas = operator.apply(covariance) + offsets
    if np.any(lambdas <= 0):
        raise ValidationError("expected powers must be positive; is Q PSD?")
    weights = 1.0 / lambdas - powers / lambdas**2
    return operator.adjoint(weights)


def nll_value_and_gradient(
    covariance: np.ndarray,
    operator: QuadraticFormOperator,
    powers: np.ndarray,
    noise_variance: float,
    offsets: Optional[np.ndarray] = None,
) -> Tuple[float, np.ndarray]:
    """NLL and its gradient in one pass (shares the ``lambda`` evaluation).

    The inputs (shapes, signs, noise floor) are validated on every call.
    """
    powers, offsets = _validate(operator, powers, noise_variance, offsets)
    lambdas = operator.apply(covariance) + offsets
    if np.any(lambdas <= 0):
        raise ValidationError("expected powers must be positive; is Q PSD?")
    value = float(np.sum(np.log(lambdas) + powers / lambdas))
    weights = 1.0 / lambdas - powers / lambdas**2
    return value, operator.adjoint(weights)

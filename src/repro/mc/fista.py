"""FISTA for nuclear-norm-regularized least squares on PSD covariances.

Solves ``min_Q 0.5 * ||A(Q) - y||^2 + mu * ||Q||_*`` over Hermitian PSD
``Q`` for the quadratic-form operator ``A`` of the covariance estimation
problem (the "sparsity regularization" route of the paper's Eq. 23–25,
references [18]–[20]). The proximal step is eigenvalue soft-thresholding
followed by clipping at zero, i.e. the exact prox of
``mu * ||.||_* + indicator(PSD)`` for Hermitian iterates.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ValidationError
from repro.mc.operators import QuadraticFormOperator
from repro.mc.result import SolverResult
from repro.utils.linalg import hermitian, nuclear_norm, soft_threshold_eigenvalues

__all__ = ["fista_nuclear"]


def fista_nuclear(
    operator: QuadraticFormOperator,
    observations: np.ndarray,
    mu: float,
    max_iterations: int = 300,
    tolerance: float = 1e-6,
    initial: Optional[np.ndarray] = None,
) -> SolverResult:
    """Accelerated proximal gradient for the nuclear-norm LS problem.

    Parameters
    ----------
    operator:
        The quadratic-form probes ``Q -> [v_j^H Q v_j]_j``.
    observations:
        The observed values ``y`` of the quadratic forms, one per probe.
    mu:
        Nuclear-norm weight; larger values bias toward lower rank.
    """
    if mu < 0:
        raise ValidationError(f"mu must be >= 0, got {mu}")
    if max_iterations < 1:
        raise ValidationError("max_iterations must be >= 1")
    matrix_shape = (operator.dimension, operator.dimension)
    observations = np.asarray(observations, dtype=float)
    if observations.shape != (operator.num_measurements,):
        raise ValidationError(
            f"observations must have shape ({operator.num_measurements},),"
            f" got {observations.shape}"
        )

    lipschitz = max(operator.lipschitz_bound(), 1e-12)
    step = 1.0 / lipschitz

    def objective(matrix: np.ndarray) -> float:
        residual = operator.apply(matrix) - observations
        return float(0.5 * np.vdot(residual, residual).real + mu * nuclear_norm(matrix))

    if initial is not None:
        current = np.asarray(initial, dtype=complex).copy()
        if current.shape != matrix_shape:
            raise ValidationError(
                f"initial must have shape {matrix_shape}, got {current.shape}"
            )
    else:
        current = np.zeros(matrix_shape, dtype=complex)
    momentum = current.copy()
    t_current = 1.0
    history = [objective(current)]
    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        residual = operator.apply(momentum) - observations
        gradient = operator.adjoint(residual)
        candidate = soft_threshold_eigenvalues(
            hermitian(momentum - step * gradient), mu * step
        )
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t_current**2)) / 2.0
        momentum = candidate + ((t_current - 1.0) / t_next) * (candidate - current)
        change = float(
            np.linalg.norm(candidate - current) / max(1.0, np.linalg.norm(current))
        )
        current = candidate
        t_current = t_next
        history.append(objective(current))
        if change < tolerance:
            converged = True
            break
    return SolverResult(
        solution=current,
        iterations=iteration,
        converged=converged,
        objective=history[-1],
        history=history,
    )

"""Singular Value Thresholding (SVT) for matrix completion.

Cai, Candès & Shen's algorithm for ``min ||X||_* s.t. P_Omega(X) =
P_Omega(M)`` — the canonical "recover a low-rank matrix from a few
entries" method the paper's Sec. IV-A2 builds its intuition on
(references [15]–[17]). Iterates

``X_k = shrink(Y_{k-1}, tau)``;  ``Y_k = Y_{k-1} + delta * P_Omega(M - X_k)``

where ``shrink`` soft-thresholds singular values at ``tau``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ValidationError
from repro.mc.operators import EntryMask
from repro.mc.result import SolverResult

__all__ = ["shrink_singular_values", "shrink_singular_values_batch", "svt_complete"]


def shrink_singular_values(matrix: np.ndarray, threshold: float) -> np.ndarray:
    """Soft-threshold the singular values of ``matrix`` at ``threshold``."""
    if threshold < 0:
        raise ValidationError(f"threshold must be >= 0, got {threshold}")
    u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    s = np.clip(s - threshold, 0.0, None)
    keep = s > 0
    if not np.any(keep):
        return np.zeros_like(matrix)
    return (u[:, keep] * s[keep]) @ vh[keep, :]


def shrink_singular_values_batch(matrices: np.ndarray, thresholds) -> np.ndarray:
    """Soft-threshold singular values of a ``(B, n1, n2)`` stack.

    ``thresholds`` is a scalar or a ``(B,)`` vector. One stacked SVD (the
    ``svd`` gufunc) replaces B serial decompositions; the rank-truncated
    reconstruction stays per-slice, so every slice of the result is
    bit-identical to :func:`shrink_singular_values` on that matrix.
    """
    matrices = np.asarray(matrices)
    if matrices.ndim != 3:
        raise ValidationError(
            f"matrices must be a (B, n1, n2) stack, got shape {matrices.shape}"
        )
    thresholds = np.asarray(thresholds, dtype=float)
    if np.any(thresholds < 0):
        raise ValidationError(f"thresholds must be >= 0, got {thresholds}")
    u, s, vh = np.linalg.svd(matrices, full_matrices=False)
    s = np.clip(
        s - (thresholds[:, None] if thresholds.ndim else thresholds), 0.0, None
    )
    out = np.zeros_like(matrices)
    for index in range(matrices.shape[0]):
        keep = s[index] > 0
        if np.any(keep):
            out[index] = (u[index][:, keep] * s[index][keep]) @ vh[index][keep, :]
    return out


def svt_complete(
    observed: np.ndarray,
    mask: EntryMask,
    tau: Optional[float] = None,
    step: Optional[float] = None,
    max_iterations: int = 500,
    tolerance: float = 1e-4,
) -> SolverResult:
    """Complete a low-rank matrix from observed entries via SVT.

    Parameters follow the original paper's recommendations adapted to the
    data scale: step ``delta = 1.2 / p`` with ``p`` the observed
    fraction, and threshold ``tau = 5 * ||P_Omega(M) / p||_2`` — the
    rescaled projection's spectral norm estimates ``sigma_1(M)``, and
    exact completion needs ``tau`` comfortably above it (the classic
    ``tau = 5n`` rule assumes unit-scale entries). ``observed`` must
    already be zero off the mask (or it will be projected).

    Convergence is declared when the relative residual on the observed
    entries drops below ``tolerance``.
    """
    observed = mask.project(np.asarray(observed))
    if tau is None:
        sigma_estimate = float(
            np.linalg.norm(observed / mask.fraction_observed, 2)
        )
        tau = 5.0 * max(sigma_estimate, 1.0)
    if step is None:
        step = 1.2 / mask.fraction_observed
    if tau <= 0 or step <= 0:
        raise ValidationError("tau and step must be > 0")
    if max_iterations < 1:
        raise ValidationError("max_iterations must be >= 1")

    observed_norm = float(np.linalg.norm(mask.observe(observed)))
    if observed_norm == 0.0:
        return SolverResult(
            solution=np.zeros_like(observed),
            iterations=0,
            converged=True,
            objective=0.0,
        )

    dual = step * observed
    solution = np.zeros_like(observed)
    history = []
    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        solution = shrink_singular_values(dual, tau)
        residual = mask.project(observed - solution)
        relative = float(np.linalg.norm(mask.observe(residual)) / observed_norm)
        history.append(relative)
        if relative < tolerance:
            converged = True
            break
        dual = dual + step * residual
    return SolverResult(
        solution=solution,
        iterations=iteration,
        converged=converged,
        objective=history[-1] if history else 0.0,
        history=history,
    )

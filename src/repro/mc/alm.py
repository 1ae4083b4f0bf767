"""Inexact Augmented Lagrange Multiplier (IALM) method for robust PCA.

Lin, Chen & Ma's algorithm (the paper's reference [20]) for

``min ||L||_* + lambda * ||S||_1  s.t.  D = L + S``

— decompose an observed matrix into a low-rank part ``L`` and a sparse
corruption ``S``. In the beam-alignment pipeline this serves as the robust
variant of covariance cleanup: occasional interference-corrupted
measurements land in ``S`` instead of polluting the low-rank channel
subspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.exceptions import ValidationError
from repro.mc.result import SolverResult
from repro.mc.svt import shrink_singular_values
from repro.obs import get_recorder

__all__ = ["RpcaResult", "soft_threshold_entries", "rpca_ialm"]


@dataclass
class RpcaResult:
    """Low-rank / sparse decomposition produced by :func:`rpca_ialm`.

    ``residual_history`` holds the relative Frobenius residual after each
    iteration — the solver's convergence trajectory, always collected
    (one float per iteration) so diagnostics never require a re-run.
    """

    low_rank: np.ndarray
    sparse: np.ndarray
    iterations: int
    converged: bool
    residual: float
    residual_history: List[float] = field(default_factory=list)


def soft_threshold_entries(
    matrix: np.ndarray,
    threshold: float,
    workspace: Optional[dict] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Entrywise complex soft-thresholding (prox of the l1 norm).

    ``workspace`` is a caller-kept dict whose float scratch buffers are
    reused across calls, and ``out`` receives the result in place — hot
    loops (one call per IALM iteration) then allocate nothing per call.
    The fused ``out=`` chain evaluates exactly the operations of the
    plain ``np.where`` formulation, including the positive zero written
    to sub-threshold entries, so results are bit-identical with or
    without the buffers.
    """
    if threshold < 0:
        raise ValidationError(f"threshold must be >= 0, got {threshold}")
    matrix = np.asarray(matrix)
    if out is not None and (out.shape != matrix.shape or out.dtype != matrix.dtype):
        raise ValidationError(
            f"out must match matrix shape {matrix.shape} and dtype {matrix.dtype}"
        )
    if workspace is None:
        workspace = {}
    magnitude = workspace.get("magnitude")
    if magnitude is None or magnitude.shape != matrix.shape:
        magnitude = workspace["magnitude"] = np.empty(matrix.shape, dtype=float)
        workspace["mask"] = np.empty(matrix.shape, dtype=bool)
        workspace["scale"] = np.empty(matrix.shape, dtype=float)
        workspace["denominator"] = np.empty(matrix.shape, dtype=float)
    mask = workspace["mask"]
    scale = workspace["scale"]
    denominator = workspace["denominator"]
    np.abs(matrix, out=magnitude)
    np.less_equal(magnitude, threshold, out=mask)
    np.subtract(magnitude, threshold, out=scale)
    np.maximum(magnitude, 1e-30, out=denominator)
    np.divide(scale, denominator, out=scale)
    np.copyto(scale, 0.0, where=mask)
    if out is None:
        return matrix * scale
    return np.multiply(matrix, scale, out=out)


def rpca_ialm(
    observed: np.ndarray,
    sparsity_weight: Optional[float] = None,
    max_iterations: int = 500,
    tolerance: float = 1e-7,
    rho: float = 1.5,
) -> RpcaResult:
    """Decompose ``observed = L + S`` with IALM.

    ``sparsity_weight`` defaults to the theoretically motivated
    ``1 / sqrt(max(n1, n2))``. Convergence: relative Frobenius residual
    ``||D - L - S|| / ||D||`` below ``tolerance``.
    """
    observed = np.asarray(observed)
    if observed.ndim != 2:
        raise ValidationError(f"observed must be 2-D, got shape {observed.shape}")
    n1, n2 = observed.shape
    lam = sparsity_weight if sparsity_weight is not None else 1.0 / np.sqrt(max(n1, n2))
    if lam <= 0:
        raise ValidationError(f"sparsity_weight must be > 0, got {lam}")
    norm_d = float(np.linalg.norm(observed))
    if norm_d == 0.0:
        zeros = np.zeros_like(observed)
        return RpcaResult(zeros, zeros.copy(), 0, True, 0.0)

    # Standard IALM initialization (Lin et al., Sec. 4).
    two_norm = float(np.linalg.norm(observed, 2))
    inf_norm = float(np.max(np.abs(observed))) / lam
    dual_scale = max(two_norm, inf_norm)
    dual = observed / dual_scale
    mu = 1.25 / two_norm
    mu_max = mu * 1e7

    recorder = get_recorder()
    low_rank = np.zeros_like(observed)
    sparse = np.zeros_like(observed)
    residual = 1.0
    converged = False
    iteration = 0
    residual_history: List[float] = []
    # Scratch buffers shared across iterations: the previous sparse
    # iterate is fully consumed by the low_rank line before the prox
    # overwrites it, so one output buffer serves every iteration.
    threshold_workspace: dict = {}
    sparse_out = np.empty_like(observed)
    with recorder.span("solver.rpca_ialm", rows=n1, cols=n2) as span:
        for iteration in range(1, max_iterations + 1):
            low_rank = shrink_singular_values(observed - sparse + dual / mu, 1.0 / mu)
            sparse = soft_threshold_entries(
                observed - low_rank + dual / mu,
                lam / mu,
                workspace=threshold_workspace,
                out=sparse_out,
            )
            gap = observed - low_rank - sparse
            dual = dual + mu * gap
            mu = min(mu * rho, mu_max)
            residual = float(np.linalg.norm(gap) / norm_d)
            residual_history.append(residual)
            if recorder.enabled:
                recorder.event(
                    "solver.rpca_ialm.iteration",
                    iteration=iteration,
                    residual=residual,
                    mu=mu,
                )
            if residual < tolerance:
                converged = True
                break
        span.annotate(iterations=iteration, converged=converged, residual=residual)
    return RpcaResult(
        low_rank=low_rank,
        sparse=sparse,
        iterations=iteration,
        converged=converged,
        residual=residual,
        residual_history=residual_history,
    )

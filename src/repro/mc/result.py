"""Common result container for iterative solvers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["SolverResult"]


@dataclass
class SolverResult:
    """Outcome of an iterative matrix solver.

    ``solution`` is the final (best) iterate; ``history`` records the
    objective or residual per iteration for diagnostics. Solvers report
    non-convergence through ``converged`` instead of raising, because a
    partially-converged covariance estimate still usefully guides beam
    selection.

    ``solution_eig``, when a solver can produce it as a by-product (the
    subspace-reduced ML covariance solver lifts its small-matrix
    eigendecomposition), holds ``(eigenvalues, eigenvectors)`` of the
    solution with eigenvalues descending — warm-started follow-up solves
    reuse it instead of re-decomposing the full-size matrix.
    """

    solution: np.ndarray
    iterations: int
    converged: bool
    objective: float
    history: List[float] = field(default_factory=list)
    solution_eig: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, repr=False, compare=False
    )

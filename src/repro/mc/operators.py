"""The quadratic-form measurement operator of covariance estimation.

The covariance-estimation problem of the paper observes *quadratic-form*
samples ``lambda_j = v_j^H Q v_j`` of the covariance ``Q``, which are
linear in ``Q`` (Sec. IV-A2: "a noisy linear measurement of the original
Q matrix"). The operator exposes the ``apply`` / ``adjoint`` interface
the FISTA solver consumes.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.linalg import hermitian

__all__ = ["QuadraticFormOperator"]


class QuadraticFormOperator:
    """The linear map ``Q -> [v_j^H Q v_j]_j`` and its adjoint.

    This is the measurement operator of the paper's estimation problem:
    the expected power of measurement ``j`` is
    ``lambda_j = v_j^H (Q + I / gamma) v_j`` (Eq. 14), i.e. an affine map
    of ``Q`` with this operator as its linear part. For Hermitian ``Q``
    the outputs are real.
    """

    def __init__(self, probes: np.ndarray) -> None:
        probes = np.asarray(probes, dtype=complex)
        if probes.ndim != 2 or probes.shape[1] < 1:
            raise ValidationError(
                f"probes must be an (n, m) matrix of probe columns, got {probes.shape}"
            )
        self._probes = probes
        self._probes_conj = probes.conj()

    @property
    def probes(self) -> np.ndarray:
        """The probe vectors as columns, shape ``(n, m)``."""
        return self._probes

    @property
    def dimension(self) -> int:
        """The matrix dimension ``n``."""
        return int(self._probes.shape[0])

    @property
    def num_measurements(self) -> int:
        """Number of probes ``m``."""
        return int(self._probes.shape[1])

    def apply(self, matrix: np.ndarray) -> np.ndarray:
        """``[Re(v_j^H Q v_j)]_j`` for a Hermitian ``Q``."""
        matrix = np.asarray(matrix)
        if matrix.shape != (self.dimension, self.dimension):
            raise ValidationError(
                f"matrix must be {self.dimension}x{self.dimension}, got {matrix.shape}"
            )
        return np.real(np.einsum("nm,nk,km->m", self._probes_conj, matrix, self._probes))

    def adjoint(self, weights: np.ndarray) -> np.ndarray:
        """``sum_j w_j v_j v_j^H`` — the adjoint under the real inner product."""
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.num_measurements,):
            raise ValidationError(
                f"weights must have shape ({self.num_measurements},), got {weights.shape}"
            )
        weighted = self._probes * weights
        return hermitian(weighted @ self._probes_conj.T)

    def lipschitz_bound(self) -> float:
        """An upper bound on ``||A||^2 = ||A^* A||`` for step-size selection.

        For ``A(Q) = [v_j^H Q v_j]``, ``||A||^2 <= sum_j ||v_j||^4``; with
        unit-norm probes this is simply the number of measurements.
        """
        norms = np.linalg.norm(self._probes, axis=0)
        return float(np.sum(norms**4))

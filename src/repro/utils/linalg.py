"""Linear-algebra helpers used across the library.

All covariance matrices handled by the estimation stack are Hermitian
positive semi-definite (PSD); the helpers here centralize the numerically
delicate pieces: symmetrization, PSD-cone projection, eigenvalue
soft-thresholding (the proximal operator of the nuclear norm restricted to
Hermitian matrices), and dB conversions.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import ValidationError

__all__ = [
    "hermitian",
    "eigh_sorted",
    "project_psd",
    "soft_threshold_eigenvalues",
    "nuclear_norm",
    "effective_rank",
    "energy_fraction",
    "dominant_eigenvector",
    "quadratic_forms",
    "db_to_linear",
    "linear_to_db",
    "unit_norm",
    "random_psd",
]


def hermitian(matrix: np.ndarray) -> np.ndarray:
    """Return the Hermitian part ``(A + A^H) / 2`` of a square matrix.

    Iterative solvers accumulate tiny asymmetries from floating-point
    round-off; re-symmetrizing after every step keeps ``eigh`` applicable.
    """
    return (matrix + matrix.conj().T) / 2.0


def eigh_sorted(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(eigenvalues, eigenvectors)`` where ``eigenvectors[:, k]``
    corresponds to ``eigenvalues[k]`` and ``eigenvalues[0]`` is the largest.
    """
    values, vectors = np.linalg.eigh(hermitian(matrix))
    order = np.argsort(values)[::-1]
    return values[order], vectors[:, order]


def project_psd(matrix: np.ndarray) -> np.ndarray:
    """Project a Hermitian matrix onto the PSD cone (clip negative eigs).

    This is the Euclidean projection used by the projected proximal
    gradient solver for the constraint ``Q >= 0`` of Eq. (17)/(24).
    """
    values, vectors = np.linalg.eigh(hermitian(matrix))
    clipped = np.clip(values, 0.0, None)
    return hermitian((vectors * clipped) @ vectors.conj().T)


def soft_threshold_eigenvalues(matrix: np.ndarray, threshold: float) -> np.ndarray:
    """Apply eigenvalue soft-thresholding to a Hermitian matrix.

    For Hermitian PSD input this is exactly the proximal operator of
    ``threshold * ||.||_*`` intersected with the PSD cone: shift every
    eigenvalue down by ``threshold`` and clip at zero. It is the proximal
    step of the FISTA least-squares solver in :mod:`repro.mc.fista`.
    """
    if threshold < 0:
        raise ValidationError(f"threshold must be >= 0, got {threshold}")
    values, vectors = np.linalg.eigh(hermitian(matrix))
    shrunk = np.clip(values - threshold, 0.0, None)
    return hermitian((vectors * shrunk) @ vectors.conj().T)


def nuclear_norm(matrix: np.ndarray) -> float:
    """Nuclear norm (sum of singular values) of a matrix."""
    return float(np.sum(np.linalg.svd(matrix, compute_uv=False)))


def effective_rank(matrix: np.ndarray, energy: float = 0.95) -> int:
    """Smallest number of eigen-directions capturing ``energy`` of the trace.

    This is the statistic the paper borrows from Akdeniz et al. [3]: for
    NYC 28 GHz channels, ~3 spatial dimensions capture 95% of the channel
    energy of a 16-element array. ``matrix`` must be Hermitian PSD.
    """
    if not 0.0 < energy <= 1.0:
        raise ValidationError(f"energy must be in (0, 1], got {energy}")
    values, _ = eigh_sorted(matrix)
    values = np.clip(values, 0.0, None)
    total = float(np.sum(values))
    if total <= 0.0:
        return 0
    cumulative = np.cumsum(values) / total
    return int(np.searchsorted(cumulative, energy - 1e-12) + 1)


def energy_fraction(matrix: np.ndarray, dimensions: int) -> float:
    """Fraction of the trace captured by the top ``dimensions`` eigenvalues."""
    if dimensions < 0:
        raise ValidationError(f"dimensions must be >= 0, got {dimensions}")
    values, _ = eigh_sorted(matrix)
    values = np.clip(values, 0.0, None)
    total = float(np.sum(values))
    if total <= 0.0:
        return 0.0
    return float(np.sum(values[:dimensions]) / total)


def dominant_eigenvector(matrix: np.ndarray) -> np.ndarray:
    """Unit-norm eigenvector of the largest eigenvalue of a Hermitian matrix."""
    _, vectors = eigh_sorted(matrix)
    vector = vectors[:, 0]
    return vector / np.linalg.norm(vector)


def quadratic_forms(matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Real parts of ``v_k^H A v_k`` for every column ``v_k`` of ``vectors``.

    Vectorized evaluation of the beam-quality metric ``v' Q v`` (Eq. 26)
    over a whole codebook at once; ``vectors`` has shape ``(n, K)`` and the
    result has shape ``(K,)``.
    """
    if matrix.shape[0] != vectors.shape[0]:
        raise ValidationError(
            f"dimension mismatch: matrix is {matrix.shape}, vectors are {vectors.shape}"
        )
    products = matrix @ vectors
    return np.real(np.einsum("nk,nk->k", vectors.conj(), products))


def db_to_linear(decibels: float) -> float:
    """Convert a dB power ratio to linear scale."""
    return float(10.0 ** (np.asarray(decibels) / 10.0))


def linear_to_db(ratio) -> float:
    """Convert a linear power ratio to dB. Zero/negative maps to ``-inf``."""
    ratio = np.asarray(ratio, dtype=float)
    with np.errstate(divide="ignore"):
        result = 10.0 * np.log10(np.where(ratio > 0, ratio, np.nan))
    result = np.where(np.isnan(result), -np.inf, result)
    if result.ndim == 0:
        return float(result)
    return result


def unit_norm(vector: np.ndarray) -> np.ndarray:
    """Scale a vector to unit Euclidean norm (beamformers are unit norm)."""
    norm = np.linalg.norm(vector)
    if norm == 0:
        raise ValidationError("cannot normalize the zero vector")
    return vector / norm


def random_psd(
    dimension: int,
    rank: int,
    rng: np.random.Generator,
    scale: float = 1.0,
) -> np.ndarray:
    """Draw a random Hermitian PSD matrix of the given rank.

    Used by tests and the matrix-completion benchmarks to generate ground
    truths with a controlled eigen-structure.
    """
    if rank < 0 or rank > dimension:
        raise ValidationError(f"rank must be in [0, {dimension}], got {rank}")
    if rank == 0:
        return np.zeros((dimension, dimension), dtype=complex)
    factors = rng.normal(size=(dimension, rank)) + 1j * rng.normal(size=(dimension, rank))
    matrix = factors @ factors.conj().T
    return hermitian(matrix * (scale / dimension))

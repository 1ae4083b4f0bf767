"""Input validation helpers.

These are intentionally strict: silent shape or dtype coercion in the
estimation stack produces plausible-but-wrong covariances, which the
alignment loop then happily optimizes against. Fail loudly instead.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ValidationError

__all__ = [
    "require",
    "check_probability",
    "check_positive",
    "check_nonnegative",
    "check_vector",
    "check_unit_norm",
    "check_index",
]


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValidationError` with ``message`` unless ``condition``."""
    if not condition:
        raise ValidationError(message)


def check_probability(value: float, name: str = "value") -> float:
    """Validate that ``value`` lies in ``[0, 1]`` and return it as float."""
    value = float(value)
    require(0.0 <= value <= 1.0, f"{name} must be in [0, 1], got {value}")
    return value


def check_positive(value: float, name: str = "value") -> float:
    """Validate strict positivity."""
    value = float(value)
    require(value > 0.0, f"{name} must be > 0, got {value}")
    return value


def check_nonnegative(value: float, name: str = "value") -> float:
    """Validate non-negativity."""
    value = float(value)
    require(value >= 0.0, f"{name} must be >= 0, got {value}")
    return value


def check_vector(
    array: np.ndarray,
    length: Optional[int] = None,
    name: str = "vector",
) -> np.ndarray:
    """Validate a 1-D array, optionally of exact ``length``."""
    array = np.asarray(array)
    require(array.ndim == 1, f"{name} must be 1-D, got shape {array.shape}")
    if length is not None:
        require(
            array.shape[0] == length,
            f"{name} must have length {length}, got {array.shape[0]}",
        )
    return array


def check_unit_norm(
    vector: np.ndarray,
    tol: float = 1e-8,
    name: str = "beamforming vector",
) -> np.ndarray:
    """Validate that a vector has unit Euclidean norm (paper Sec. III-A)."""
    vector = check_vector(vector, name=name)
    norm = float(np.linalg.norm(vector))
    require(abs(norm - 1.0) <= tol, f"{name} must be unit-norm, got ||.|| = {norm}")
    return vector


def check_index(index: int, size: int, name: str = "index") -> int:
    """Validate an integer index into a sequence of ``size`` elements."""
    index = int(index)
    require(0 <= index < size, f"{name} must be in [0, {size}), got {index}")
    return index

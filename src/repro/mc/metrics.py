"""Recovery metrics for matrix completion."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError

__all__ = ["relative_error"]


def relative_error(estimate: np.ndarray, truth: np.ndarray) -> float:
    """``||estimate - truth||_F / ||truth||_F`` (0 for an exact match)."""
    estimate = np.asarray(estimate)
    truth = np.asarray(truth)
    if estimate.shape != truth.shape:
        raise ValidationError(f"shapes differ: {estimate.shape} vs {truth.shape}")
    denominator = float(np.linalg.norm(truth))
    if denominator == 0.0:
        return float(np.linalg.norm(estimate))
    return float(np.linalg.norm(estimate - truth) / denominator)

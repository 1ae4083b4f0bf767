"""Covariance-structure analysis.

Quantifies the *low-rank property* the whole design rests on (paper
Sec. IV-A1): for NYC-style channels with 2–3 narrow clusters, a handful
of spatial dimensions carries nearly all of the channel energy (the paper
cites 3 dimensions for 95% on a 16-element array). The ``lowrank``
benchmark regenerates this setup fact through :func:`low_rank_summary`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.linalg import effective_rank, energy_fraction

__all__ = ["LowRankSummary", "low_rank_summary"]


@dataclass(frozen=True)
class LowRankSummary:
    """Spectral summary of a spatial covariance matrix."""

    dimension: int
    trace: float
    effective_rank_95: int
    energy_top1: float
    energy_top3: float
    energy_top5: float

    def as_row(self) -> str:
        """Render as a fixed-width report row."""
        return (
            f"dim={self.dimension:3d}  trace={self.trace:8.4f}  "
            f"rank95={self.effective_rank_95:2d}  "
            f"top1={self.energy_top1:6.1%}  top3={self.energy_top3:6.1%}  "
            f"top5={self.energy_top5:6.1%}"
        )


def low_rank_summary(covariance: np.ndarray) -> LowRankSummary:
    """Summarize how concentrated the energy of a PSD covariance is."""
    covariance = np.asarray(covariance)
    return LowRankSummary(
        dimension=int(covariance.shape[0]),
        trace=float(np.real(np.trace(covariance))),
        effective_rank_95=effective_rank(covariance, energy=0.95),
        energy_top1=energy_fraction(covariance, 1),
        energy_top3=energy_fraction(covariance, 3),
        energy_top5=energy_fraction(covariance, 5),
    )

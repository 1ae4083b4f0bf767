"""The ``Random`` baseline (paper Sec. V).

For each measurement the TX and RX beams are drawn uniformly at random
over the not-yet-measured pairs; after the budget is spent the strongest
measured pair wins. This is the scheme conventional sparse-sensing
approaches implicitly assume (random sampling), and the paper's proposed
design exists to beat it.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import AlignmentContext, BeamAlignmentAlgorithm
from repro.core.result import AlignmentResult

__all__ = ["RandomSearch"]


class RandomSearch(BeamAlignmentAlgorithm):
    """Uniformly random distinct beam pairs."""

    name = "Random"

    def align(
        self,
        context: AlignmentContext,
        rng: np.random.Generator,
    ) -> AlignmentResult:
        total = context.total_pairs
        limit = context.budget.remaining
        context.measure_many(rng.choice(total, size=limit, replace=False))
        return context.result(self.name)

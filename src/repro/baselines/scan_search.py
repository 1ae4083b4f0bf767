"""The ``Scan`` baseline (paper Sec. V).

"At the beginning of the scheme a starting beam pair is selected, and
then for each following measurement, the next ``u_i`` and ``v_j`` can
only be chosen from the beam direction that is spatially adjacent to the
previous beam direction."

Read literally: *both* sides hop to a spatially adjacent beam on every
measurement. We realize this as a diagonal walk over the pair lattice —
the TX beam advances along a boustrophedon (snake) path over the TX grid
while the RX beam simultaneously advances along its own snake path, so
each consecutive pair differs by one adjacent hop on each side and the
sweep covers both beam spaces evenly (unlike a row-major sweep, which
would dwell on one TX beam for a full RX sweep and starve TX coverage at
low search rates). When the walk closes on an already-measured pair —
after ``lcm(|U|, |V|)`` steps — the TX phase advances one extra step,
opening a fresh diagonal.

The starting pair is random, as in the paper.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.base import AlignmentContext, BeamAlignmentAlgorithm
from repro.core.result import AlignmentResult

__all__ = ["ScanSearch"]


class ScanSearch(BeamAlignmentAlgorithm):
    """Diagonal spatially-adjacent sweep from a random starting pair."""

    name = "Scan"

    def align(
        self,
        context: AlignmentContext,
        rng: np.random.Generator,
    ) -> AlignmentResult:
        tx_path = context.tx_codebook.snake_order(0)
        rx_path = context.rx_codebook.snake_order(0)
        n_tx, n_rx = len(tx_path), len(rx_path)
        tx_step = int(rng.integers(0, n_tx))
        rx_step = int(rng.integers(0, n_rx))

        # The walk is deterministic given the start, so the whole path is
        # planned first, on flat pair indices ``tx * |V| + rx``, and
        # measured through one fused measure_many call.
        total = context.total_pairs
        taken = context.measured_indices()
        planned: List[int] = []
        for _ in range(context.budget.remaining):
            flat = tx_path[tx_step % n_tx] * n_rx + rx_path[rx_step % n_rx]
            attempts = 0
            while flat in taken and attempts < total:
                tx_step += 1  # phase shift opens a fresh diagonal
                flat = tx_path[tx_step % n_tx] * n_rx + rx_path[rx_step % n_rx]
                attempts += 1
            if flat in taken:
                break  # every pair measured
            planned.append(flat)
            taken.add(flat)
            tx_step += 1
            rx_step += 1
        context.measure_many(np.array(planned, dtype=np.int64))
        return context.result(self.name)

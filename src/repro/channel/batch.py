"""Batched channel realization: whole-batch steering, coupling, and SNR.

Monte-Carlo trials are i.i.d. over channel realizations, so the per-trial
linear algebra of :class:`~repro.channel.base.ClusteredChannel` stacks:

* steering matrices of every trial come out of **one** concatenated
  ``positions @ units`` GEMM (sliced per trial);
* codebook-coupling tables (``a^H u`` projections) and mean-SNR matrices
  come out of stacked ``(B, ., .)`` GEMMs, grouped by subpath count ``K``
  (cluster counts are Poisson, so ``K`` varies per trial).

Bit-identity contract: every per-trial slice equals, bit for bit, what
the serial code path computes for the same realization. Concatenating
columns of a GEMM, batching the matmul over a leading axis, and applying
elementwise kernels to contiguous slices all preserve per-element
floating-point results on the BLAS/ufunc paths NumPy uses here; the
``tests/test_batch_engine.py`` determinism suite pins this down.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.arrays.codebook import Codebook
from repro.arrays.geometry import ArrayGeometry
from repro.arrays.steering import direction_unit_vector
from repro.channel.base import ClusteredChannel, CodebookCoupling, Subpath
from repro.utils.geometry import Direction

__all__ = [
    "stacked_steering_matrices",
    "build_channels",
    "prime_codebook_couplings",
    "mean_snr_matrices",
]


def stacked_steering_matrices(
    array: ArrayGeometry,
    direction_lists: Sequence[Sequence[Direction]],
) -> List[np.ndarray]:
    """Per-group steering matrices from one concatenated GEMM.

    Equivalent to ``[steering_matrix(array, ds) for ds in
    direction_lists]`` — the phase GEMM runs once over the concatenated
    direction columns, and each group's contiguous phase slice goes
    through the same ``exp`` / normalization as the serial path.
    """
    counts = [len(directions) for directions in direction_lists]
    flat = [d for directions in direction_lists for d in directions]
    if not flat:
        return [
            np.zeros((array.num_elements, 0), dtype=complex) for _ in direction_lists
        ]
    units = np.stack([direction_unit_vector(d) for d in flat], axis=1)
    phases = 2.0 * np.pi * (array.positions @ units)
    scale = np.sqrt(array.num_elements)
    matrices: List[np.ndarray] = []
    offset = 0
    for count in counts:
        block = np.ascontiguousarray(phases[:, offset : offset + count])
        matrices.append(np.exp(1j * block) / scale)
        offset += count
    return matrices


def build_channels(
    tx_array: ArrayGeometry,
    rx_array: ArrayGeometry,
    subpath_lists: Sequence[Sequence[Subpath]],
    snr: float = 100.0,
    total_power: float = 1.0,
) -> List[ClusteredChannel]:
    """Construct one :class:`ClusteredChannel` per subpath list.

    Steering for the whole batch is built by
    :func:`stacked_steering_matrices` and injected, so channel
    construction does no per-trial GEMM. Results are bit-identical to
    constructing each channel individually.
    """
    tx_mats = stacked_steering_matrices(
        tx_array, [[s.tx_direction for s in subs] for subs in subpath_lists]
    )
    rx_mats = stacked_steering_matrices(
        rx_array, [[s.rx_direction for s in subs] for subs in subpath_lists]
    )
    return [
        ClusteredChannel(
            tx_array,
            rx_array,
            list(subs),
            snr=snr,
            total_power=total_power,
            tx_steering=tx_steering,
            rx_steering=rx_steering,
        )
        for subs, tx_steering, rx_steering in zip(subpath_lists, tx_mats, rx_mats)
    ]


def _groups_by_subpaths(channels: Sequence[ClusteredChannel]) -> Dict[int, List[int]]:
    groups: Dict[int, List[int]] = {}
    for index, channel in enumerate(channels):
        groups.setdefault(channel.num_subpaths, []).append(index)
    return groups


def prime_codebook_couplings(
    channels: Sequence[ClusteredChannel],
    tx_codebook: Codebook,
    rx_codebook: Codebook,
) -> List[CodebookCoupling]:
    """Compute and memoize every channel's coupling table via stacked GEMMs.

    Channels are grouped by subpath count so each group's projections run
    as one ``(g, ., .)`` batched matmul; each slice is primed into its
    channel's coupling memo, making the per-trial
    :meth:`~repro.channel.base.ClusteredChannel.codebook_couplings` call
    a cache hit.
    """
    couplings: List[CodebookCoupling] = [None] * len(channels)  # type: ignore[list-item]
    rx_conj = np.conj(rx_codebook.vectors).T
    tx_vectors = tx_codebook.vectors
    for indices in _groups_by_subpaths(channels).values():
        tx_stack = np.stack([channels[i].tx_steering for i in indices])
        rx_stack = np.stack([channels[i].rx_steering for i in indices])
        tx_proj = np.matmul(np.conj(tx_stack.transpose(0, 2, 1)), tx_vectors)
        rx_proj = np.matmul(rx_conj, rx_stack)
        for position, index in enumerate(indices):
            coupling = CodebookCoupling(
                tx_proj=tx_proj[position], rx_proj=rx_proj[position]
            )
            channels[index].prime_codebook_coupling(tx_codebook, rx_codebook, coupling)
            couplings[index] = coupling
    return couplings


def mean_snr_matrices(
    channels: Sequence[ClusteredChannel],
    tx_codebook: Codebook,
    rx_codebook: Codebook,
) -> List[np.ndarray]:
    """Every channel's exact mean-SNR matrix from stacked GEMMs.

    Primes the coupling tables as a side effect (the couplings feed both
    the SNR evaluation here and every later measurement of the trial).
    Per channel bit-identical to
    :meth:`~repro.channel.base.ClusteredChannel.mean_snr_matrix`.
    """
    couplings = prime_codebook_couplings(channels, tx_codebook, rx_codebook)
    matrices: List[np.ndarray] = [None] * len(channels)  # type: ignore[list-item]
    for indices in _groups_by_subpaths(channels).values():
        tx_gains = np.abs(np.stack([couplings[i].tx_proj for i in indices])) ** 2
        rx_gains = np.abs(np.stack([couplings[i].rx_proj for i in indices])) ** 2
        powers = np.stack([channels[i].powers for i in indices])
        weighted = powers[:, :, None] * rx_gains.transpose(0, 2, 1)
        products = np.matmul(tx_gains.transpose(0, 2, 1), weighted)
        for position, index in enumerate(indices):
            matrices[index] = channels[index].snr * products[position]
    return matrices

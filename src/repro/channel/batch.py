"""Batched channel realization: whole-batch steering, coupling, and SNR.

A realization's geometry arrives as columns — subpath powers ``(K,)``
and angles ``(K, 4)`` (TX azimuth, TX elevation, RX azimuth, RX
elevation) from the kernel of :mod:`repro.channel.clusters` — and no
per-subpath object is built on the way to a channel. Monte-Carlo trials
are i.i.d. over realizations, so the per-trial linear algebra of
:class:`~repro.channel.base.ClusteredChannel` stacks:

* steering matrices of every trial come out of **one** concatenated
  ``positions @ units`` GEMM per array side, fed straight from the
  concatenated angle columns (sliced per trial);
* codebook-coupling tables (``a^H u`` projections) and mean-SNR matrices
  come out of stacked ``(B, ., .)`` GEMMs, grouped by subpath count ``K``
  (cluster counts are Poisson, so ``K`` varies per trial).

Bit-identity contract: every per-trial slice equals, bit for bit, what
a channel built alone computes for the same realization. Concatenating
columns of a GEMM, batching the matmul over a leading axis, and applying
elementwise kernels to contiguous slices all preserve per-element
floating-point results on the BLAS/ufunc paths NumPy uses here; the
``tests/test_batch_engine.py`` determinism suite pins this down.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.arrays.codebook import Codebook
from repro.arrays.geometry import ArrayGeometry
from repro.arrays.steering import angle_phases
from repro.channel.base import ClusteredChannel, CodebookCoupling

__all__ = [
    "stacked_steering_matrices",
    "build_channels",
    "prime_codebook_couplings",
    "mean_snr_matrices",
]


def stacked_steering_matrices(
    array: ArrayGeometry,
    angle_blocks: Sequence[np.ndarray],
) -> List[np.ndarray]:
    """Per-block steering matrices from one concatenated GEMM.

    Each block is a ``(K, 2)`` array of (azimuth, elevation) rows; block
    ``i`` yields the ``(num_elements, K_i)`` steering matrix of its
    directions. The phase GEMM runs once over the concatenated angle
    columns, and each block's contiguous phase slice goes through the
    same ``exp`` / normalization as a channel built alone.
    """
    counts = [len(block) for block in angle_blocks]
    if not sum(counts):
        return [np.zeros((array.num_elements, 0), dtype=complex) for _ in counts]
    flat = np.concatenate(angle_blocks)
    phases = angle_phases(array, flat[:, 0], flat[:, 1])
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
    columns: Sequence[Tuple[np.ndarray, np.ndarray]],
    snr: float = 100.0,
    total_power: float = 1.0,
) -> List[ClusteredChannel]:
    """One :class:`ClusteredChannel` per ``(powers, angles)`` realization.

    Steering for the whole batch is built by
    :func:`stacked_steering_matrices` and injected, so channel
    construction does no per-trial GEMM. Results are bit-identical to
    constructing each channel individually.
    """
    tx_mats = stacked_steering_matrices(tx_array, [angles[:, 0:2] for _, angles in columns])
    rx_mats = stacked_steering_matrices(rx_array, [angles[:, 2:4] for _, angles in columns])
    return [
        ClusteredChannel.from_columns(
            tx_array,
            rx_array,
            powers,
            angles,
            snr=snr,
            total_power=total_power,
            tx_steering=tx_steering,
            rx_steering=rx_steering,
        )
        for (powers, angles), tx_steering, rx_steering in zip(columns, tx_mats, rx_mats)
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

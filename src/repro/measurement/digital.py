"""Digital (full-vector) RX observations.

The paper restricts itself to low-complexity *analog* beamforming, where
the receiver "can look in only one direction at a time" (Sec. III-A);
its related work [12] derives detectors for digital beamforming, where
every antenna has its own RF chain and one dwell observes the full
received vector

``y = H u + n``,  ``n ~ CN(0, I / gamma)``

— after which *any* RX beam can be evaluated in software,
``z(v) = v^H y``. This module provides that observation model so the
library can quantify exactly how much of the search problem is an
artifact of analog front ends (the ``DigitalRx`` entry of the extension
benchmarks): one dwell per TX beam replaces a whole RX sweep, at the
hardware cost of N receive chains.
"""

from __future__ import annotations

import numpy as np

from repro.channel.base import ClusteredChannel
from repro.exceptions import ValidationError
from repro.utils.rng import complex_normal
from repro.utils.validation import check_unit_norm

__all__ = ["observe_rx_vector", "beam_powers_from_observations"]


def observe_rx_vector(
    channel: ClusteredChannel,
    tx_beam: np.ndarray,
    rng: np.random.Generator,
    fading_blocks: int = 1,
) -> np.ndarray:
    """``fading_blocks`` digital observations ``y_b = H_b u + n_b``.

    Returns shape ``(fading_blocks, N)``. Each block draws independent
    fading and noise, mirroring the analog engine's dwell model.
    """
    if fading_blocks < 1:
        raise ValidationError(f"fading_blocks must be >= 1, got {fading_blocks}")
    tx_beam = check_unit_norm(np.asarray(tx_beam, dtype=complex), name="tx_beam")
    n = channel.rx_array.num_elements
    noise_variance = 1.0 / channel.snr
    observations = np.empty((fading_blocks, n), dtype=complex)
    for block in range(fading_blocks):
        h = channel.sample(rng)
        noise = complex_normal(rng, n, variance=noise_variance)
        observations[block] = h @ tx_beam + noise
    return observations


def beam_powers_from_observations(
    observations: np.ndarray,
    rx_vectors: np.ndarray,
) -> np.ndarray:
    """Software beamforming: ``mean_b |v_k^H y_b|^2`` for each column ``v_k``.

    Equivalent in expectation to measuring each beam with an analog
    dwell of the same block count — but obtained from *one* observation.
    """
    observations = np.asarray(observations, dtype=complex)
    rx_vectors = np.asarray(rx_vectors, dtype=complex)
    if observations.ndim != 2 or rx_vectors.ndim != 2:
        raise ValidationError("observations and rx_vectors must be 2-D")
    if observations.shape[1] != rx_vectors.shape[0]:
        raise ValidationError(
            f"dimension mismatch: observations are {observations.shape},"
            f" rx_vectors are {rx_vectors.shape}"
        )
    projected = observations.conj() @ rx_vectors  # (blocks, beams)
    return np.mean(np.abs(projected) ** 2, axis=0)

"""Single-path mmWave channel scenario (paper Sec. V, Figs. 5 and 7).

The single-path scenario has one dominant propagation path with a random
angle of departure / angle of arrival inside the sector field of view; its
RX covariance is exactly rank one, which is the friendliest case for the
low-rank estimation machinery and the cleanest separation between the
proposed scheme and the blind baselines.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.arrays.geometry import ArrayGeometry
from repro.channel.base import ClusteredChannel
from repro.channel.clusters import ClusterParams, sample_singlepath_columns

__all__ = ["sample_singlepath_channel"]


def sample_singlepath_channel(
    tx_array: ArrayGeometry,
    rx_array: ArrayGeometry,
    rng: np.random.Generator,
    snr: float = 100.0,
    params: Optional[ClusterParams] = None,
) -> ClusteredChannel:
    """Draw a single-path channel with a uniformly random path direction.

    ``params`` only contributes the sector field of view (its sine
    ranges); spreads and cluster counts are irrelevant for one path.
    """
    powers, angles = sample_singlepath_columns(rng, params or ClusterParams())
    return ClusteredChannel.from_columns(tx_array, rx_array, powers, angles, snr=snr)

"""NYC-style multipath channel scenario (paper Sec. V, Figs. 6 and 8).

Combines the cluster statistics of :mod:`repro.channel.clusters` — the
published recipe from the NYC 28 GHz measurement campaign [3] — into a
ready-to-use :class:`~repro.channel.base.ClusteredChannel`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.arrays.geometry import ArrayGeometry
from repro.channel.base import ClusteredChannel
from repro.channel.clusters import ClusterParams, sample_cluster_columns

__all__ = ["sample_nyc_channel"]


def sample_nyc_channel(
    tx_array: ArrayGeometry,
    rx_array: ArrayGeometry,
    rng: np.random.Generator,
    snr: float = 100.0,
    params: Optional[ClusterParams] = None,
) -> ClusteredChannel:
    """Draw a clustered multipath channel with NYC-derived statistics.

    The result typically has 1–3 dominant clusters of narrow angular
    spread, giving the low-rank covariance the proposed alignment scheme
    exploits (Sec. IV-A1).
    """
    powers, angles = sample_cluster_columns(rng, params or ClusterParams())
    return ClusteredChannel.from_columns(tx_array, rx_array, powers, angles, snr=snr)

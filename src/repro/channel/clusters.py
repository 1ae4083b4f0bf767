"""Path-cluster statistics for NYC-style multipath channels.

The paper's multipath evaluation uses "the model derived from NYC
measurements in [3]" (Akdeniz et al., JSAC 2014): a small number of path
clusters (two to three dominant), random cluster power fractions with a
heavy skew, and a small angular spread within each cluster. We reproduce
that generative recipe:

* cluster count ``K = max(1, Poisson(lambda))`` with ``lambda ~ 1.9``;
* cluster power fractions ``gamma_k' = U_k^(r_tau - 1) * 10^(-0.1 Z_k)``
  with ``U_k ~ Uniform(0, 1)``, ``Z_k ~ N(0, zeta^2)``, normalized to sum
  to one (the [3] recipe with ``r_tau = 2.8``, ``zeta = 4`` dB);
* cluster centers uniform in sine space over the sector field of view;
* subpaths spread around the center with a wrapped-Gaussian angular
  offset of a few degrees rms, equal power split within the cluster.

One column kernel draws a realization: :func:`sample_cluster_columns`
(and :func:`sample_singlepath_columns` for the one-path family) returns
subpath powers ``(K,)`` and angles ``(K, 4)`` — TX azimuth, TX
elevation, RX azimuth, RX elevation — with wrap and clip applied as
array operations. The object-returning helpers below are thin wrappers
over the same draws and consume the generator identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.channel.base import Subpath, subpaths_from_columns
from repro.exceptions import ValidationError
from repro.utils.geometry import Direction

__all__ = [
    "ClusterParams",
    "PathClusterSpec",
    "random_sector_direction",
    "sample_cluster_specs",
    "specs_to_subpaths",
    "sample_cluster_columns",
    "sample_singlepath_columns",
]


@dataclass(frozen=True)
class ClusterParams:
    """Statistical parameters of the cluster generator."""

    mean_clusters: float = 1.9
    max_clusters: int = 6
    power_decay_exponent: float = 2.8  # r_tau of [3]
    power_shadowing_db: float = 4.0  # zeta of [3]
    subpaths_per_cluster: int = 8
    azimuth_spread_deg: float = 7.0  # rms per-cluster AoA/AoD azimuth spread
    elevation_spread_deg: float = 4.0
    azimuth_sine_range: Tuple[float, float] = (-0.9, 0.9)
    elevation_sine_range: Tuple[float, float] = (-0.5, 0.5)

    def __post_init__(self) -> None:
        if self.mean_clusters <= 0:
            raise ValidationError("mean_clusters must be > 0")
        if self.max_clusters < 1:
            raise ValidationError("max_clusters must be >= 1")
        if self.subpaths_per_cluster < 1:
            raise ValidationError("subpaths_per_cluster must be >= 1")
        if self.power_decay_exponent < 1.0:
            raise ValidationError("power_decay_exponent must be >= 1")
        if self.power_shadowing_db < 0:
            raise ValidationError("power_shadowing_db must be >= 0")
        low, high = self.azimuth_sine_range
        if not -1.0 <= low < high <= 1.0:
            raise ValidationError("azimuth_sine_range must be within [-1, 1]")
        low, high = self.elevation_sine_range
        if not -1.0 <= low < high <= 1.0:
            raise ValidationError("elevation_sine_range must be within [-1, 1]")


@dataclass(frozen=True)
class PathClusterSpec:
    """One cluster: its total power fraction and its center directions."""

    power_fraction: float
    tx_center: Direction
    rx_center: Direction

    def __post_init__(self) -> None:
        if not 0.0 <= self.power_fraction <= 1.0:
            raise ValidationError(
                f"power_fraction must be in [0, 1], got {self.power_fraction}"
            )


def _sector_angles(
    rng: np.random.Generator, params: ClusterParams, rows: int, directions: int
) -> np.ndarray:
    """Angles uniform in sine space over the sector: ``(rows, 2 * directions)``.

    Per row, ``directions`` (azimuth, elevation) pairs, each drawn as two
    scalar uniforms in that order; a 2-direction row is a TX center then
    an RX center.
    """
    bounds = (params.azimuth_sine_range, params.elevation_sine_range) * directions
    sines = [rng.uniform(low, high) for _ in range(rows) for low, high in bounds]
    return np.arcsin(np.array(sines).reshape(rows, 2 * directions))


def random_sector_direction(rng: np.random.Generator, params: ClusterParams) -> Direction:
    """Cluster center uniform in sine space over the configured sector."""
    azimuth, elevation = _sector_angles(rng, params, 1, 1)[0].tolist()
    return Direction(azimuth=azimuth, elevation=elevation)


def _cluster_centers(
    rng: np.random.Generator, params: ClusterParams
) -> Tuple[np.ndarray, np.ndarray]:
    """Cluster count, power fractions ``(C,)`` and centers ``(C, 4)``."""
    count = int(min(params.max_clusters, max(1, rng.poisson(params.mean_clusters))))
    uniforms = rng.uniform(size=count)
    shadowing = rng.normal(scale=params.power_shadowing_db, size=count)
    raw = uniforms ** (params.power_decay_exponent - 1.0) * 10.0 ** (-0.1 * shadowing)
    return raw / raw.sum(), _sector_angles(rng, params, count, 2)


def _spread_subpaths(
    fractions: np.ndarray,
    centers: np.ndarray,
    rng: np.random.Generator,
    params: ClusterParams,
) -> Tuple[np.ndarray, np.ndarray]:
    """Equal-power subpaths around each center: powers ``(K,)``, angles ``(K, 4)``.

    One Gaussian draw gives every offset (per subpath: TX azimuth, TX
    elevation, RX azimuth, RX elevation); azimuths wrap to ``[-pi, pi)``
    and elevations clip to ``[-pi/2, pi/2]``.
    """
    per_cluster = params.subpaths_per_cluster
    az_spread = np.deg2rad(params.azimuth_spread_deg)
    el_spread = np.deg2rad(params.elevation_spread_deg)
    offsets = rng.normal(
        scale=[az_spread, el_spread, az_spread, el_spread],
        size=(len(fractions) * per_cluster, 4),
    )
    angles = np.repeat(centers, per_cluster, axis=0) + offsets
    angles[:, 0::2] = (angles[:, 0::2] + np.pi) % (2 * np.pi) - np.pi
    angles[:, 1::2] = np.minimum(np.maximum(angles[:, 1::2], -np.pi / 2), np.pi / 2)
    return np.repeat(fractions / per_cluster, per_cluster), angles


def sample_cluster_columns(
    rng: np.random.Generator,
    params: ClusterParams = ClusterParams(),
) -> Tuple[np.ndarray, np.ndarray]:
    """One NYC multipath realization as subpath powers and angles.

    Draws the cluster count, powers and centers, then every subpath
    offset; the powers sum to one.
    """
    fractions, centers = _cluster_centers(rng, params)
    return _spread_subpaths(fractions, centers, rng, params)


def sample_singlepath_columns(
    rng: np.random.Generator,
    params: ClusterParams = ClusterParams(),
) -> Tuple[np.ndarray, np.ndarray]:
    """One single-path realization: unit power, sector-uniform TX/RX angles."""
    return np.ones(1), _sector_angles(rng, params, 1, 2)


def sample_cluster_specs(
    rng: np.random.Generator,
    params: ClusterParams = ClusterParams(),
) -> List[PathClusterSpec]:
    """Draw the cluster count, powers, and center directions."""
    fractions, centers = _cluster_centers(rng, params)
    return [
        PathClusterSpec(
            power_fraction=fraction,
            tx_center=Direction(tx_az, tx_el),
            rx_center=Direction(rx_az, rx_el),
        )
        for fraction, (tx_az, tx_el, rx_az, rx_el) in zip(
            fractions.tolist(), centers.tolist()
        )
    ]


def specs_to_subpaths(
    specs: List[PathClusterSpec],
    rng: np.random.Generator,
    params: ClusterParams = ClusterParams(),
) -> List[Subpath]:
    """Expand cluster specs into discrete equal-power-per-cluster subpaths."""
    if not specs:
        raise ValidationError("need at least one cluster spec")
    fractions = np.array([spec.power_fraction for spec in specs], dtype=float)
    centers = np.array(
        [
            (
                spec.tx_center.azimuth,
                spec.tx_center.elevation,
                spec.rx_center.azimuth,
                spec.rx_center.elevation,
            )
            for spec in specs
        ],
        dtype=float,
    )
    return subpaths_from_columns(*_spread_subpaths(fractions, centers, rng, params))

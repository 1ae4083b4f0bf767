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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.channel.base import Subpath
from repro.exceptions import ValidationError
from repro.utils.geometry import Direction, wrap_angle

__all__ = [
    "ClusterParams",
    "PathClusterSpec",
    "random_sector_direction",
    "sample_cluster_specs",
    "specs_to_subpaths",
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


def random_sector_direction(rng: np.random.Generator, params: ClusterParams) -> Direction:
    """Cluster center uniform in sine space over the configured sector."""
    az_low, az_high = params.azimuth_sine_range
    el_low, el_high = params.elevation_sine_range
    azimuth = float(np.arcsin(rng.uniform(az_low, az_high)))
    elevation = float(np.arcsin(rng.uniform(el_low, el_high)))
    return Direction(azimuth=azimuth, elevation=elevation)


def sample_cluster_specs(
    rng: np.random.Generator,
    params: ClusterParams = ClusterParams(),
) -> List[PathClusterSpec]:
    """Draw the cluster count, powers, and center directions."""
    count = int(min(params.max_clusters, max(1, rng.poisson(params.mean_clusters))))
    uniforms = rng.uniform(size=count)
    shadowing = rng.normal(scale=params.power_shadowing_db, size=count)
    raw = uniforms ** (params.power_decay_exponent - 1.0) * 10.0 ** (-0.1 * shadowing)
    fractions = raw / raw.sum()
    return [
        PathClusterSpec(
            power_fraction=float(fraction),
            tx_center=random_sector_direction(rng, params),
            rx_center=random_sector_direction(rng, params),
        )
        for fraction in fractions
    ]


def _offset_direction(
    center: Direction,
    rng: np.random.Generator,
    azimuth_spread_rad: float,
    elevation_spread_rad: float,
) -> Direction:
    """Perturb a center direction by a Gaussian angular offset (clipped)."""
    azimuth = wrap_angle(center.azimuth + rng.normal(scale=azimuth_spread_rad))
    elevation = min(
        max(center.elevation + rng.normal(scale=elevation_spread_rad), -np.pi / 2),
        np.pi / 2,
    )
    return Direction(azimuth=azimuth, elevation=elevation)


def specs_to_subpaths(
    specs: List[PathClusterSpec],
    rng: np.random.Generator,
    params: ClusterParams = ClusterParams(),
) -> List[Subpath]:
    """Expand cluster specs into discrete equal-power-per-cluster subpaths."""
    if not specs:
        raise ValidationError("need at least one cluster spec")
    az_spread = np.deg2rad(params.azimuth_spread_deg)
    el_spread = np.deg2rad(params.elevation_spread_deg)
    subpaths: List[Subpath] = []
    for spec in specs:
        per_path = spec.power_fraction / params.subpaths_per_cluster
        for _ in range(params.subpaths_per_cluster):
            subpaths.append(
                Subpath(
                    power=per_path,
                    tx_direction=_offset_direction(spec.tx_center, rng, az_spread, el_spread),
                    rx_direction=_offset_direction(spec.rx_center, rng, az_spread, el_spread),
                )
            )
    return subpaths

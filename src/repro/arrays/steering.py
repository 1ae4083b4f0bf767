"""Steering-vector computation.

The steering vector of an array toward direction ``(azimuth, elevation)``
collects the relative phase of a far-field plane wave at each element:

``a_m = exp(j * 2 * pi * p_m . d_hat) / sqrt(num_elements)``

where ``p_m`` is the element position in wavelengths and ``d_hat`` the unit
propagation direction. The ``1/sqrt(num_elements)`` factor makes every
steering vector unit-norm — the paper's constraint ``||u|| = ||v|| = 1``
(Sec. III-A) — so beamforming gain comes from coherent combining, not from
power scaling.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.arrays.geometry import ArrayGeometry
from repro.utils.geometry import Direction

__all__ = [
    "direction_unit_vector",
    "steering_vector",
    "steering_matrix",
    "angle_phases",
]


def direction_unit_vector(direction: Direction) -> np.ndarray:
    """Unit propagation vector for a direction (x: az sine, z: el sine)."""
    azimuth, elevation = direction.azimuth, direction.elevation
    return np.array(
        [
            np.sin(azimuth) * np.cos(elevation),
            np.cos(azimuth) * np.cos(elevation),
            np.sin(elevation),
        ]
    )


def steering_vector(array: ArrayGeometry, direction: Direction) -> np.ndarray:
    """Unit-norm steering vector of ``array`` toward ``direction``."""
    phases = 2.0 * np.pi * (array.positions @ direction_unit_vector(direction))
    return np.exp(1j * phases) / np.sqrt(array.num_elements)


def angle_phases(
    array: ArrayGeometry,
    azimuths: np.ndarray,
    elevations: np.ndarray,
) -> np.ndarray:
    """Element phases ``2 * pi * p_m . d_hat`` toward every direction column.

    ``azimuths`` / ``elevations`` are equal-length angle columns; the
    result has shape ``(num_elements, K)``. The unit vectors are built
    with elementwise array kernels and meet the element positions in one
    GEMM; each entry equals what :func:`direction_unit_vector` gives for
    that direction.
    """
    cos_elevation = np.cos(elevations)
    units = np.stack(
        [
            np.sin(azimuths) * cos_elevation,
            np.cos(azimuths) * cos_elevation,
            np.sin(elevations),
        ]
    )
    return 2.0 * np.pi * (array.positions @ units)


def steering_matrix(
    array: ArrayGeometry,
    directions: Sequence[Direction],
) -> np.ndarray:
    """Stack steering vectors as columns; shape ``(num_elements, K)``.

    Vectorized over directions — this is the hot path when building
    codebooks and when evaluating exact mean-SNR matrices over the full
    beam-pair product space.
    """
    if len(directions) == 0:
        return np.zeros((array.num_elements, 0), dtype=complex)
    azimuths = np.array([d.azimuth for d in directions], dtype=float)
    elevations = np.array([d.elevation for d in directions], dtype=float)
    phases = angle_phases(array, azimuths, elevations)
    return np.exp(1j * phases) / np.sqrt(array.num_elements)

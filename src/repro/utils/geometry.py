"""Angle and direction geometry for beam steering.

Conventions used throughout the library:

* ``azimuth`` (theta) is measured in radians in ``[-pi, pi)`` around the
  array broadside;
* ``elevation`` (phi) is measured in radians in ``[-pi/2, pi/2]`` from the
  horizontal plane;
* directional cosines ``(u, v)`` are the sine-space coordinates used by
  planar arrays: ``u = sin(az) * cos(el)``, ``v = sin(el)``.

Angles enter the steering-vector phase only through the directional
cosines, so beam grids are most naturally uniform in sine space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError

__all__ = ["Direction", "wrap_angle", "uniform_sine_grid"]


@dataclass(frozen=True)
class Direction:
    """A propagation direction as (azimuth, elevation) in radians."""

    azimuth: float
    elevation: float = 0.0

    def __post_init__(self) -> None:
        if not -np.pi <= self.azimuth <= np.pi:
            raise ValidationError(
                f"azimuth must lie in [-pi, pi], got {self.azimuth!r}"
            )
        if not -np.pi / 2 <= self.elevation <= np.pi / 2:
            raise ValidationError(
                f"elevation must lie in [-pi/2, pi/2], got {self.elevation!r}"
            )


def wrap_angle(angle: float) -> float:
    """Wrap an angle to ``[-pi, pi)``."""
    return float((angle + np.pi) % (2 * np.pi) - np.pi)


def uniform_sine_grid(count: int) -> np.ndarray:
    """``count`` angles whose *sines* are uniform in ``[-1, 1)``.

    A sine-space uniform grid gives beams of equal beamwidth in sine space
    — the natural grid for half-wavelength arrays (and the angle set of a
    DFT codebook).
    """
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    edges = np.linspace(-1.0, 1.0, count + 1)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return np.arcsin(centers)

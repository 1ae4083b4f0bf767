"""Tests for repro.utils.geometry."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.utils.geometry import Direction, uniform_sine_grid, wrap_angle


class TestDirection:
    def test_basic_construction(self):
        d = Direction(azimuth=0.5, elevation=-0.2)
        assert d.azimuth == 0.5
        assert d.elevation == -0.2

    def test_default_elevation(self):
        assert Direction(azimuth=1.0).elevation == 0.0

    def test_rejects_bad_azimuth(self):
        with pytest.raises(ValidationError):
            Direction(azimuth=4.0)

    def test_rejects_bad_elevation(self):
        with pytest.raises(ValidationError):
            Direction(azimuth=0.0, elevation=2.0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Direction(azimuth=0.0).azimuth = 1.0  # type: ignore[misc]


class TestWrapAngle:
    @pytest.mark.parametrize(
        "angle,expected",
        [(0.0, 0.0), (np.pi, -np.pi), (-np.pi, -np.pi), (3 * np.pi, -np.pi), (2 * np.pi, 0.0)],
    )
    def test_values(self, angle, expected):
        assert wrap_angle(angle) == pytest.approx(expected)

    def test_range(self):
        for angle in np.linspace(-20, 20, 101):
            wrapped = wrap_angle(angle)
            assert -np.pi <= wrapped < np.pi


class TestGrids:
    def test_uniform_sine_grid_sines_uniform(self):
        grid = uniform_sine_grid(8)
        sines = np.sin(grid)
        steps = np.diff(sines)
        np.testing.assert_allclose(steps, steps[0])

    def test_uniform_sine_grid_symmetric(self):
        grid = uniform_sine_grid(6)
        np.testing.assert_allclose(grid, -grid[::-1], atol=1e-12)

    def test_uniform_sine_grid_single(self):
        np.testing.assert_allclose(uniform_sine_grid(1), [0.0])

    def test_uniform_sine_grid_invalid(self):
        with pytest.raises(ValidationError):
            uniform_sine_grid(0)


@settings(max_examples=100, deadline=None)
@given(angle=st.floats(-100.0, 100.0))
def test_property_wrap_angle_range(angle):
    wrapped = wrap_angle(angle)
    assert -np.pi <= wrapped < np.pi
    # Wrapping preserves the angle modulo 2*pi (residual near 0 or 2*pi).
    residual = (angle - wrapped) % (2 * np.pi)
    assert min(residual, 2 * np.pi - residual) == pytest.approx(0.0, abs=1e-6)

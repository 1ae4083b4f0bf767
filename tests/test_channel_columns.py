"""The column channel kernel against a frozen copy of the scalar recipe.

Channel geometry is drawn as columns (powers ``(K,)``, angles ``(K, 4)``)
by one kernel that serves the serial and the batched paths alike, so a
serial-vs-batched comparison only compares the kernel with itself. This
module pins the kernel to an independent, test-local copy of the
per-subpath scalar recipe the column kernel replaced: cluster specs,
then one ``_offset_direction`` per subpath side, then per-direction
steering vectors. Powers, steering and subpath angles must match byte
for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
import pytest

from repro.arrays.upa import UniformPlanarArray
from repro.channel.base import ClusteredChannel, Subpath
from repro.channel.clusters import ClusterParams, sample_cluster_columns
from repro.exceptions import ValidationError
from repro.sim.config import ChannelKind, ScenarioConfig
from repro.sim.scenario import Scenario
from repro.utils.geometry import Direction

SEEDS = range(200)

#: Parameter sets the reference runs under. ``wrap-clip`` spreads cluster
#: centers over the whole sphere with wide spreads, so azimuths wrap past
#: both -pi and +pi and elevations clip at both -pi/2 and +pi/2.
PARAMS = {
    "default": ClusterParams(),
    "wrap-clip": ClusterParams(
        azimuth_sine_range=(-1.0, 1.0),
        elevation_sine_range=(-1.0, 1.0),
        azimuth_spread_deg=100.0,
        elevation_spread_deg=30.0,
    ),
    "one-subpath": ClusterParams(subpaths_per_cluster=1),
    "one-cluster": ClusterParams(max_clusters=1),
}


# ----------------------------------------------------------------------
# Frozen reference: the scalar recipe, one Python object at a time
# ----------------------------------------------------------------------


@dataclass
class _Events:
    """How often the reference wrapped or clipped, per side of the range."""

    wraps_low: int = 0
    wraps_high: int = 0
    clips_low: int = 0
    clips_high: int = 0

    def all_seen(self) -> bool:
        return min(self.wraps_low, self.wraps_high, self.clips_low, self.clips_high) > 0


def _ref_sector_direction(rng, params):
    az_low, az_high = params.azimuth_sine_range
    el_low, el_high = params.elevation_sine_range
    azimuth = float(np.arcsin(rng.uniform(az_low, az_high)))
    elevation = float(np.arcsin(rng.uniform(el_low, el_high)))
    return Direction(azimuth=azimuth, elevation=elevation)


def _ref_offset_direction(center, rng, az_spread, el_spread, events):
    raw_azimuth = center.azimuth + rng.normal(scale=az_spread)
    raw_elevation = center.elevation + rng.normal(scale=el_spread)
    events.wraps_low += raw_azimuth < -np.pi
    events.wraps_high += raw_azimuth >= np.pi
    events.clips_low += raw_elevation < -np.pi / 2
    events.clips_high += raw_elevation > np.pi / 2
    azimuth = float((raw_azimuth + np.pi) % (2 * np.pi) - np.pi)
    elevation = min(max(raw_elevation, -np.pi / 2), np.pi / 2)
    return Direction(azimuth=azimuth, elevation=elevation)


def _ref_multipath_subpaths(rng, params, events) -> List[Subpath]:
    count = int(min(params.max_clusters, max(1, rng.poisson(params.mean_clusters))))
    uniforms = rng.uniform(size=count)
    shadowing = rng.normal(scale=params.power_shadowing_db, size=count)
    raw = uniforms ** (params.power_decay_exponent - 1.0) * 10.0 ** (-0.1 * shadowing)
    fractions = raw / raw.sum()
    specs = [
        (
            float(fraction),
            _ref_sector_direction(rng, params),
            _ref_sector_direction(rng, params),
        )
        for fraction in fractions
    ]
    az_spread = np.deg2rad(params.azimuth_spread_deg)
    el_spread = np.deg2rad(params.elevation_spread_deg)
    subpaths = []
    for fraction, tx_center, rx_center in specs:
        per_path = fraction / params.subpaths_per_cluster
        for _ in range(params.subpaths_per_cluster):
            subpaths.append(
                Subpath(
                    power=per_path,
                    tx_direction=_ref_offset_direction(
                        tx_center, rng, az_spread, el_spread, events
                    ),
                    rx_direction=_ref_offset_direction(
                        rx_center, rng, az_spread, el_spread, events
                    ),
                )
            )
    return subpaths


def _ref_singlepath_subpaths(rng, params, events) -> List[Subpath]:
    return [
        Subpath(
            power=1.0,
            tx_direction=_ref_sector_direction(rng, params),
            rx_direction=_ref_sector_direction(rng, params),
        )
    ]


def _ref_steering(array, directions) -> np.ndarray:
    units = np.stack(
        [
            np.array(
                [
                    np.sin(d.azimuth) * np.cos(d.elevation),
                    np.cos(d.azimuth) * np.cos(d.elevation),
                    np.sin(d.elevation),
                ]
            )
            for d in directions
        ],
        axis=1,
    )
    phases = 2.0 * np.pi * (array.positions @ units)
    return np.exp(1j * phases) / np.sqrt(array.num_elements)


def _reference(scenario, rng, events) -> Tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    params = scenario.config.cluster_params
    if scenario.config.channel is ChannelKind.SINGLEPATH:
        subpaths = _ref_singlepath_subpaths(rng, params, events)
    else:
        subpaths = _ref_multipath_subpaths(rng, params, events)
    powers = np.array([s.power for s in subpaths], dtype=float)
    powers = powers * (1.0 / float(powers.sum()))
    normalized = tuple(
        Subpath(power=float(p), tx_direction=s.tx_direction, rx_direction=s.rx_direction)
        for p, s in zip(powers, subpaths)
    )
    tx = _ref_steering(scenario.tx_array, [s.tx_direction for s in subpaths])
    rx = _ref_steering(scenario.rx_array, [s.rx_direction for s in subpaths])
    return powers, tx, rx, normalized


def _scenario(kind: ChannelKind, params: ClusterParams) -> Scenario:
    return Scenario(
        ScenarioConfig(
            channel=kind,
            tx_shape=(2, 4),
            rx_shape=(4, 4),
            rx_beam_grid=None,
            cluster_params=params,
        )
    )


def _assert_matches(channel, reference):
    powers, tx, rx, subpaths = reference
    assert channel.powers.tobytes() == powers.tobytes()
    assert channel.tx_steering.tobytes() == tx.tobytes()
    assert channel.rx_steering.tobytes() == rx.tobytes()
    assert channel.subpaths == subpaths


class TestFrozenReference:
    @pytest.mark.parametrize("kind", list(ChannelKind))
    @pytest.mark.parametrize("label", sorted(PARAMS))
    def test_serial_draw_matches_scalar_recipe(self, kind, label):
        scenario = _scenario(kind, PARAMS[label])
        events = _Events()
        for seed in SEEDS:
            reference = _reference(scenario, np.random.default_rng(seed), events)
            channel = scenario.sample_channel(np.random.default_rng(seed))
            _assert_matches(channel, reference)
        if label == "wrap-clip" and kind is ChannelKind.MULTIPATH:
            assert events.all_seen(), events

    @pytest.mark.parametrize("kind", list(ChannelKind))
    def test_batched_draw_matches_scalar_recipe(self, kind):
        scenario = _scenario(kind, PARAMS["wrap-clip"])
        channels = scenario.sample_channel_batch(
            [np.random.default_rng(seed) for seed in SEEDS]
        )
        for seed, channel in zip(SEEDS, channels):
            reference = _reference(scenario, np.random.default_rng(seed), _Events())
            _assert_matches(channel, reference)

    def test_generator_left_where_the_recipe_leaves_it(self):
        params = PARAMS["default"]
        ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
        sample_cluster_columns(ours, params)
        _ref_multipath_subpaths(theirs, params, _Events())
        assert ours.random() == theirs.random()


# ----------------------------------------------------------------------
# Lazy Subpath tuple and vectorised validation
# ----------------------------------------------------------------------


def _arrays():
    return UniformPlanarArray(2, 2), UniformPlanarArray(2, 4)


def _columns():
    powers = np.array([0.8, 0.2])
    angles = np.array([[0.3, 0.1, -0.5, 0.2], [-0.7, -0.1, 0.9, -0.2]])
    return powers, angles


class TestColumnChannel:
    def test_lazy_subpaths_equal_object_form(self):
        tx, rx = _arrays()
        powers, angles = _columns()
        objects = [
            Subpath(float(p), Direction(a[0], a[1]), Direction(a[2], a[3]))
            for p, a in zip(powers, angles)
        ]
        by_objects = ClusteredChannel(tx, rx, objects, snr=50.0)
        by_columns = ClusteredChannel.from_columns(tx, rx, powers, angles, snr=50.0)
        assert by_columns.subpaths == by_objects.subpaths
        assert by_columns.subpaths is by_columns.subpaths
        assert by_columns.tx_steering.tobytes() == by_objects.tx_steering.tobytes()
        assert by_columns.rx_steering.tobytes() == by_objects.rx_steering.tobytes()
        assert by_columns.powers.tobytes() == by_objects.powers.tobytes()

    @pytest.mark.parametrize(
        "column, value, direction",
        [
            (0, 3.5, lambda v: Direction(v, 0.0)),
            (1, -1.6, lambda v: Direction(0.0, v)),
            (2, -4.0, lambda v: Direction(v, 0.0)),
            (3, float("nan"), lambda v: Direction(0.0, v)),
        ],
    )
    def test_out_of_range_angle_raises_direction_error(self, column, value, direction):
        tx, rx = _arrays()
        powers, angles = _columns()
        angles[1, column] = value
        with pytest.raises(ValidationError) as expected:
            direction(value)
        with pytest.raises(ValidationError) as raised:
            ClusteredChannel.from_columns(tx, rx, powers, angles)
        assert str(raised.value) == str(expected.value)

    def test_negative_power_raises_subpath_error(self):
        tx, rx = _arrays()
        powers, angles = _columns()
        powers[0] = -0.25
        with pytest.raises(ValidationError) as expected:
            Subpath(-0.25, Direction(0.0), Direction(0.0))
        with pytest.raises(ValidationError) as raised:
            ClusteredChannel.from_columns(tx, rx, powers, angles)
        assert str(raised.value) == str(expected.value)

    def test_shape_mismatch_rejected(self):
        tx, rx = _arrays()
        powers, angles = _columns()
        with pytest.raises(ValidationError):
            ClusteredChannel.from_columns(tx, rx, powers, angles[:, :3])
        with pytest.raises(ValidationError):
            ClusteredChannel.from_columns(tx, rx, powers[:1], angles)
        with pytest.raises(ValidationError):
            ClusteredChannel.from_columns(tx, rx, powers[:0], angles[:0])

    @pytest.mark.parametrize("kind", list(ChannelKind))
    def test_empty_batch(self, kind):
        assert _scenario(kind, ClusterParams()).sample_channel_batch([]) == []

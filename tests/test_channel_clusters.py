"""Tests for cluster statistics and scenario channel generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrays.upa import UniformPlanarArray
from repro.channel.clusters import (
    ClusterParams,
    PathClusterSpec,
    sample_cluster_columns,
    sample_cluster_specs,
)
from repro.channel.multipath import sample_nyc_channel
from repro.exceptions import ValidationError
from repro.sim.config import ChannelKind, ScenarioConfig
from repro.sim.scenario import Scenario
from repro.utils.geometry import Direction


class TestClusterParams:
    def test_defaults_valid(self):
        ClusterParams()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mean_clusters": 0.0},
            {"max_clusters": 0},
            {"subpaths_per_cluster": 0},
            {"power_decay_exponent": 0.5},
            {"power_shadowing_db": -1.0},
            {"azimuth_sine_range": (0.5, 0.1)},
            {"elevation_sine_range": (-2.0, 0.5)},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValidationError):
            ClusterParams(**kwargs)


class TestSpecSampling:
    def test_fractions_sum_to_one(self, rng):
        specs = sample_cluster_specs(rng)
        assert sum(s.power_fraction for s in specs) == pytest.approx(1.0)

    def test_cluster_count_bounds(self, rng):
        params = ClusterParams(max_clusters=3)
        for _ in range(50):
            specs = sample_cluster_specs(rng, params)
            assert 1 <= len(specs) <= 3

    def test_mean_cluster_count_plausible(self):
        """Poisson(1.9) clipped to [1, 6]: mean around 2."""
        counts = [
            len(sample_cluster_specs(np.random.default_rng(i))) for i in range(500)
        ]
        assert 1.5 < np.mean(counts) < 2.7

    def test_directions_in_sector(self, rng):
        params = ClusterParams(azimuth_sine_range=(-0.5, 0.5))
        for _ in range(50):
            for spec in sample_cluster_specs(rng, params):
                for d in (spec.tx_center, spec.rx_center):
                    assert abs(np.sin(d.azimuth)) <= 0.5 + 1e-9

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            PathClusterSpec(
                power_fraction=1.2, tx_center=Direction(0.0), rx_center=Direction(0.0)
            )


class TestSubpathExpansion:
    """The column kernel spreads subpaths around ``sample_cluster_specs``'s
    clusters: both draw the count, powers and centers identically."""

    def test_count(self):
        params = ClusterParams(subpaths_per_cluster=5)
        for seed in range(10):
            specs = sample_cluster_specs(np.random.default_rng(seed), params)
            powers, _ = sample_cluster_columns(np.random.default_rng(seed), params)
            assert len(powers) == 5 * len(specs)

    def test_power_partition(self, rng):
        powers, _ = sample_cluster_columns(rng)
        assert powers.sum() == pytest.approx(1.0)

    def test_angular_spread_small(self):
        """Subpaths stay within a few spreads of their cluster center."""
        params = ClusterParams(azimuth_spread_deg=2.0, elevation_spread_deg=1.0)
        per = params.subpaths_per_cluster
        for seed in range(10):
            specs = sample_cluster_specs(np.random.default_rng(seed), params)
            _, angles = sample_cluster_columns(np.random.default_rng(seed), params)
            for index, spec in enumerate(specs):
                rx_azimuths = angles[index * per : (index + 1) * per, 2]
                offsets = np.abs(
                    np.angle(np.exp(1j * (rx_azimuths - spec.rx_center.azimuth)))
                )
                assert offsets.max() < np.deg2rad(2.0) * 5


class TestScenarioGenerators:
    def test_singlepath_rank_one(self, rng):
        scenario = Scenario(
            ScenarioConfig(
                channel=ChannelKind.SINGLEPATH, tx_shape=(2, 2), rx_shape=(2, 4)
            )
        )
        channel = scenario.sample_channel(rng)
        assert channel.num_subpaths == 1
        values = np.linalg.eigvalsh(channel.full_rx_covariance())
        assert np.sum(values > 1e-10 * values.max()) == 1

    def test_singlepath_snr(self, rng):
        config = ScenarioConfig(
            channel=ChannelKind.SINGLEPATH, tx_shape=(2, 2), rx_shape=(2, 2), snr_db=17.0
        )
        channel = Scenario(config).sample_channel(rng)
        assert channel.snr == config.snr_linear

    def test_multipath_structure(self, rng):
        tx, rx = UniformPlanarArray(2, 2), UniformPlanarArray(2, 4)
        params = ClusterParams(subpaths_per_cluster=4)
        channel = sample_nyc_channel(tx, rx, rng, params=params)
        assert channel.num_subpaths % 4 == 0
        assert channel.powers.sum() == pytest.approx(1.0)

    def test_multipath_low_rank_tendency(self):
        """Clustered channels concentrate energy in few eigen-directions."""
        from repro.utils.linalg import energy_fraction

        tx, rx = UniformPlanarArray(4, 4), UniformPlanarArray(4, 4)
        fractions = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            channel = sample_nyc_channel(tx, rx, rng)
            fractions.append(energy_fraction(channel.full_rx_covariance(), 5))
        assert np.mean(fractions) > 0.85

    def test_determinism(self):
        tx, rx = UniformPlanarArray(2, 2), UniformPlanarArray(2, 2)
        a = sample_nyc_channel(tx, rx, np.random.default_rng(3))
        b = sample_nyc_channel(tx, rx, np.random.default_rng(3))
        np.testing.assert_allclose(a.powers, b.powers)
        np.testing.assert_allclose(a.rx_steering, b.rx_steering)

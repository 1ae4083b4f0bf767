"""Tests for the cell's seeded Poisson arrival process."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cell.arrivals import (
    ARRIVAL_STREAM,
    CELL_NAMESPACE,
    arrival_schedule,
    cell_root,
    poisson_arrivals,
)
from repro.cell.config import CellConfig
from repro.exceptions import ConfigurationError
from repro.sim.config import ScenarioConfig
from repro.utils.rng import labeled_spawn, trial_generator


def small_cell(**overrides) -> CellConfig:
    defaults = dict(
        scenario=ScenarioConfig(
            tx_shape=(2, 2), rx_shape=(2, 4), rx_beam_grid=(3, 3), fading_blocks=4
        ),
        num_users=25,
        arrival_rate_hz=5000.0,
        search_rate=0.2,
        probe_budget_per_frame=32,
    )
    defaults.update(overrides)
    return CellConfig(**defaults)


class TestPoissonArrivals:
    def test_deterministic_for_seed(self):
        config = small_cell()
        first = arrival_schedule(config)
        second = arrival_schedule(config)
        assert first.times_us.tolist() == second.times_us.tolist()
        assert first.admitted == config.num_users
        assert first.rejected == 0

    def test_seed_changes_schedule(self):
        base = arrival_schedule(small_cell())
        other = arrival_schedule(small_cell(base_seed=99))
        assert base.times_us.tolist() != other.times_us.tolist()

    def test_arrivals_strictly_ordered(self):
        schedule = arrival_schedule(small_cell(num_users=200))
        times = schedule.times_us
        assert np.all(np.diff(times) > 0)
        assert [a.ue_id for a in schedule.arrivals] == list(range(200))

    def test_duration_truncates(self):
        config = small_cell(num_users=200, arrival_rate_hz=1000.0, duration_s=0.05)
        schedule = arrival_schedule(config)
        assert schedule.admitted + schedule.rejected == 200
        assert schedule.rejected > 0
        assert schedule.span_us <= 0.05 * 1e6

    def test_statistical_mean_rate(self):
        rng = np.random.default_rng(7)
        schedule = poisson_arrivals(20000, 1000.0, rng)
        mean_gap_s = schedule.span_us / 1e6 / schedule.admitted
        assert mean_gap_s == pytest.approx(1e-3, rel=0.05)

    def test_single_block_stream_cost(self):
        """The whole schedule is one vectorized exponential draw."""
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        poisson_arrivals(64, 2000.0, a)
        b.exponential(scale=1.0 / 2000.0, size=64)
        assert a.standard_normal() == b.standard_normal()


class TestStreamNamespace:
    def test_cell_root_disjoint_from_trial_streams(self):
        """The namespaced root never collides with any UE's trial pool."""
        seed = 2016
        arrival_rng = labeled_spawn(cell_root(seed), [ARRIVAL_STREAM])[ARRIVAL_STREAM]
        arrival_draws = arrival_rng.random(8)
        for ue_id in (0, 1, CELL_NAMESPACE - 1):
            ue_draws = trial_generator(seed, ue_id).random(8)
            assert not np.any(arrival_draws == ue_draws)

    def test_num_users_capped_below_namespace(self):
        with pytest.raises(ConfigurationError):
            small_cell(num_users=CELL_NAMESPACE)


class TestConfigRoundTrip:
    def test_to_from_dict(self):
        config = small_cell(duration_s=0.25)
        rebuilt = CellConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.to_dict() == config.to_dict()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            small_cell(arrival_rate_hz=0.0)
        with pytest.raises(ConfigurationError):
            small_cell(search_rate=0.0)
        with pytest.raises(ConfigurationError):
            small_cell(duration_s=-1.0)
        with pytest.raises(ConfigurationError):
            # 1000 grants x 2us + beacon + feedback > 2000us superframe
            small_cell(probe_budget_per_frame=1000)
        with pytest.raises(ConfigurationError):
            small_cell(interference_coupling=-0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["interference_coupling", "interference_power"])
    def test_non_finite_interference_rejected(self, field, value):
        # NaN slips past a plain ``< 0`` check, and min(1, nan) is 1: a NaN
        # coupling would strike every dwell instead of failing loudly.
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            small_cell(**{field: value})

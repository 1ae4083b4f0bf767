"""Tests for the end-to-end MAC simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.random_search import RandomSearch
from repro.core.proposed import ProposedAlignment
from repro.exceptions import ConfigurationError
from repro.mac.frames import FrameConfig
from repro.mac.simulator import MacSimulator


class TestMacSimulator:
    def test_interval_count(self, small_scenario, rng):
        simulator = MacSimulator(small_scenario)
        report = simulator.run(lambda: RandomSearch(), 0.2, num_intervals=3, rng=rng)
        assert len(report.intervals) == 3

    def test_aggregates_finite(self, small_scenario, rng):
        simulator = MacSimulator(small_scenario)
        report = simulator.run(lambda: RandomSearch(), 0.3, num_intervals=4, rng=rng)
        assert np.isfinite(report.mean_net_bps_hz)
        assert 0.0 <= report.mean_overhead <= 1.0

    def test_more_training_more_overhead(self, small_scenario, rng):
        simulator = MacSimulator(
            small_scenario, FrameConfig(coherence_time_us=2000.0)
        )
        low = simulator.run(
            lambda: RandomSearch(), 0.05, 3, np.random.default_rng(0)
        )
        high = simulator.run(
            lambda: RandomSearch(), 0.9, 3, np.random.default_rng(0)
        )
        assert high.mean_overhead > low.mean_overhead

    def test_invalid_intervals(self, small_scenario, rng):
        simulator = MacSimulator(small_scenario)
        with pytest.raises(ConfigurationError):
            simulator.run(lambda: RandomSearch(), 0.2, 0, rng)

    def test_interval_losses_nonnegative(self, small_scenario, rng):
        simulator = MacSimulator(small_scenario)
        report = simulator.run(lambda: RandomSearch(), 0.5, 3, rng)
        for interval in report.intervals:
            assert interval.loss_db >= -1e-9

    def test_measurement_airtime_per_dwell(self, small_scenario, rng):
        config = FrameConfig()
        report = MacSimulator(small_scenario, config).run(
            lambda: RandomSearch(), 0.3, 3, rng
        )
        for interval in report.intervals:
            used = interval.alignment.measurements_used
            assert interval.timing.measurement_us == pytest.approx(
                used * config.measurement_duration_us
            )
            assert interval.timing.total_us > interval.timing.measurement_us

    def test_slots_counted_for_proposed(self, small_scenario, rng):
        report = MacSimulator(small_scenario).run(
            lambda: ProposedAlignment(measurements_per_slot=4), 0.3, 3, rng
        )
        for interval in report.intervals:
            assert interval.timing.num_slots == len(interval.alignment.slots)

    def test_more_budget_longer_training(self, small_scenario):
        simulator = MacSimulator(small_scenario)
        durations = [
            simulator.run(lambda: RandomSearch(), rate, 1, np.random.default_rng(1))
            .intervals[0]
            .timing.total_us
            for rate in (0.1, 0.5)
        ]
        assert durations[1] > durations[0]

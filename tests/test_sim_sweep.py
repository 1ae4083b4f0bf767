"""Tests for the sweep machinery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ValidationError
from repro.sim.runner import standard_schemes
from repro.sim.sweep import (
    EffectivenessSweep,
    effectiveness_sweep,
    required_search_rates,
)


@pytest.fixture(scope="module")
def sweep(request):
    from repro.sim.config import ChannelKind, ScenarioConfig
    from repro.sim.scenario import Scenario

    scenario = Scenario(
        ScenarioConfig(
            channel=ChannelKind.MULTIPATH,
            tx_shape=(2, 2),
            rx_shape=(2, 4),
            rx_beam_grid=(3, 3),
            fading_blocks=4,
        )
    )
    return effectiveness_sweep(
        scenario, standard_schemes(measurements_per_slot=4), [0.2, 0.5, 0.9], 4,
        base_seed=3,
    )


class TestEffectivenessSweep:
    def test_structure(self, sweep):
        assert sweep.search_rates == [0.2, 0.5, 0.9]
        assert set(sweep.schemes()) == {"Random", "Scan", "Proposed"}
        for scheme in sweep.schemes():
            assert len(sweep.losses[scheme]) == 3
            assert all(len(trials) == 4 for trials in sweep.losses[scheme])

    def test_stats_populated(self, sweep):
        for scheme in sweep.schemes():
            means = sweep.mean_loss(scheme)
            assert len(means) == 3
            assert all(m >= 0 for m in means)

    def test_loss_broadly_decreasing(self, sweep):
        """More budget can't hurt much: the 90% point beats the 20% point."""
        for scheme in sweep.schemes():
            means = sweep.mean_loss(scheme)
            assert means[-1] <= means[0] + 1.0

    def test_invalid_rates(self, small_scenario):
        with pytest.raises(ConfigurationError):
            effectiveness_sweep(small_scenario, standard_schemes(), [], 2)
        with pytest.raises(ConfigurationError):
            effectiveness_sweep(small_scenario, standard_schemes(), [1.5], 2)


class TestStoreAdapter:
    RATES = [0.2, 0.4]

    def _specs(self):
        from repro.sim.parallel import SchemeSpec

        return {
            "Random": SchemeSpec.of("Random"),
            "Proposed": SchemeSpec.of("Proposed", measurements_per_slot=4),
        }

    def test_store_path_matches_direct(self, small_scenario, tmp_path):
        specs = self._specs()
        direct = effectiveness_sweep(
            small_scenario,
            {name: spec.build_factory() for name, spec in specs.items()},
            self.RATES,
            3,
            base_seed=2,
        )
        stored = effectiveness_sweep(
            small_scenario,
            specs,
            self.RATES,
            3,
            base_seed=2,
            store=tmp_path / "store",
            shard_trials=2,
        )
        assert stored.losses == direct.losses
        assert stored.search_rates == direct.search_rates
        # second run resumes from the store; still identical
        resumed = effectiveness_sweep(
            small_scenario,
            specs,
            self.RATES,
            3,
            base_seed=2,
            store=tmp_path / "store",
            shard_trials=2,
        )
        assert resumed.losses == direct.losses

    def test_store_path_repeats_a_duplicate_rate(self, small_scenario, tmp_path):
        """A rate listed twice runs once on both paths and reports twice."""
        specs = self._specs()
        rates = [0.2, 0.1, 0.2]
        direct = effectiveness_sweep(
            small_scenario,
            {name: spec.build_factory() for name, spec in specs.items()},
            rates,
            3,
            base_seed=2,
        )
        stored = effectiveness_sweep(
            small_scenario, specs, rates, 3, base_seed=2, store=tmp_path / "store"
        )
        assert stored.search_rates == direct.search_rates == rates
        assert stored.losses == direct.losses
        assert stored.mean_loss("Proposed") == direct.mean_loss("Proposed")

    def test_store_requires_scheme_specs(self, small_scenario, tmp_path):
        with pytest.raises(ConfigurationError, match="SchemeSpec"):
            effectiveness_sweep(
                small_scenario,
                standard_schemes(),
                self.RATES,
                2,
                store=tmp_path / "store",
            )

    def test_bad_scheme_parameter_raises_once_in_the_caller(
        self, small_scenario, tmp_path
    ):
        """A spec builds its scheme, so the scheme's own error surfaces in
        the caller before any shard is planned, stored or retried."""
        from repro.sim.parallel import SchemeSpec

        with pytest.raises(ValidationError, match="measurements_per_slot"):
            effectiveness_sweep(
                small_scenario,
                {"Proposed": SchemeSpec.of("Proposed", measurements_per_slot=0)},
                self.RATES,
                2,
                store=tmp_path / "store",
            )
        assert not (tmp_path / "store").exists()


class TestRequiredSearchRates:
    def test_monotone_in_target(self, sweep):
        """Laxer targets can only need fewer measurements."""
        curve = required_search_rates(sweep, [0.5, 1.0, 2.0, 4.0, 8.0])
        for scheme in curve.schemes():
            rates = curve.required_rates[scheme]
            assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))

    def test_impossible_target_reports_full_rate(self):
        synthetic = EffectivenessSweep(
            search_rates=[0.1, 0.5],
            losses={"X": [[5.0, 5.0], [3.0, 3.0]]},
        )
        curve = required_search_rates(synthetic, [1.0])
        assert curve.required_rates["X"] == [1.0]

    def test_picks_smallest_sufficient_rate(self):
        synthetic = EffectivenessSweep(
            search_rates=[0.1, 0.3, 0.6],
            losses={"X": [[4.0], [2.0], [1.0]]},
        )
        curve = required_search_rates(synthetic, [2.5, 1.5, 0.5])
        assert curve.required_rates["X"] == [0.3, 0.6, 1.0]

    def test_unsorted_rate_grid_handled(self):
        synthetic = EffectivenessSweep(
            search_rates=[0.6, 0.1, 0.3],
            losses={"X": [[1.0], [4.0], [2.0]]},
        )
        curve = required_search_rates(synthetic, [2.5])
        assert curve.required_rates["X"] == [0.3]

    def test_invalid_targets(self, sweep):
        with pytest.raises(ValidationError):
            required_search_rates(sweep, [])
        with pytest.raises(ValidationError):
            required_search_rates(sweep, [-1.0])

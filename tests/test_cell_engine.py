"""Tests for per-UE alignment execution (serial vs batched bit-identity)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cell.config import CellConfig
from repro.cell.engine import UE_STREAM_LABELS, execute_ues, interference_probability
from repro.cell.scheduler import build_schedule
from repro.sim.batch import draw_block
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import Scenario
from repro.utils.rng import trial_generator


def small_cell(**overrides) -> CellConfig:
    defaults = dict(
        scenario=ScenarioConfig(
            tx_shape=(2, 2), rx_shape=(2, 4), rx_beam_grid=(3, 3), fading_blocks=4
        ),
        num_users=20,
        arrival_rate_hz=5000.0,
        search_rate=0.25,
        probe_budget_per_frame=16,
        interference_coupling=0.2,
        interference_power=2.0,
    )
    defaults.update(overrides)
    return CellConfig(**defaults)


class TestUEStreams:
    LABELS = ("channel", "measurement", "algorithm")

    def _block(self, *ue_ids):
        scenario = Scenario(small_cell().scenario)
        rngs = [trial_generator(7, ue_id) for ue_id in ue_ids]
        return scenario, draw_block(scenario, rngs, UE_STREAM_LABELS)

    def test_ue_is_its_own_trial(self):
        """UE k's streams derive from trial k of the seeding contract."""
        scenario, [(streams, channel, snr_matrix)] = self._block(3)
        assert UE_STREAM_LABELS == self.LABELS
        assert set(streams) == set(self.LABELS)
        reference = dict(zip(self.LABELS, trial_generator(7, 3).spawn(3)))
        expected = scenario.sample_channel(reference["channel"])
        shared = scenario.context()
        assert np.array_equal(
            snr_matrix, expected.mean_snr_matrix(shared.tx_codebook, shared.rx_codebook)
        )
        assert np.array_equal(channel.powers, expected.powers)
        for label in self.LABELS:
            assert streams[label].random() == reference[label].random()

    def test_distinct_ues_distinct_draws(self):
        _, [(a, _, _), (b, _, _)] = self._block(0, 1)
        assert not np.any(a["measurement"].random(4) == b["measurement"].random(4))


class TestExecuteUEs:
    def _run(self, batch_users):
        config = small_cell()
        schedule = build_schedule(config)
        scenario = Scenario(config.scenario)
        return execute_ues(
            scenario, config, schedule.entries, batch_users=batch_users
        )

    def test_serial_vs_batched_bit_identical(self):
        serial = self._run(None)
        for block in (1, 7, 32):
            batched = self._run(block)
            assert len(batched) == len(serial)
            for s, b in zip(serial, batched):
                assert s == b  # frozen dataclass: exact field equality

    def test_outcomes_in_entry_order(self):
        outcomes = self._run(8)
        assert [o.ue_id for o in outcomes] == list(range(20))
        assert all(np.isfinite(o.loss_db) for o in outcomes)
        assert all(o.measurements_used > 0 for o in outcomes)

    def test_contention_drives_interference(self):
        config = small_cell()
        schedule = build_schedule(config)
        probabilities = [
            interference_probability(config, entry) for entry in schedule.entries
        ]
        assert max(probabilities) > 0.0
        exposed = self._run(None)
        assert sum(o.interference_hits for o in exposed) > 0

    def test_zero_coupling_is_clean(self):
        config = small_cell(interference_coupling=0.0)
        schedule = build_schedule(config)
        outcomes = execute_ues(
            Scenario(config.scenario), config, schedule.entries, batch_users=8
        )
        assert all(o.interference_probability == 0.0 for o in outcomes)
        assert all(o.interference_hits == 0 for o in outcomes)

    def test_subset_execution_matches_full_run(self):
        """A shard's UEs see the same outcomes as in the full run."""
        config = small_cell()
        schedule = build_schedule(config)
        scenario = Scenario(config.scenario)
        full = execute_ues(scenario, config, schedule.entries, batch_users=8)
        part = execute_ues(
            scenario, config, schedule.entries[5:15], batch_users=8
        )
        assert part == full[5:15]

    def test_empty_entries(self):
        config = small_cell()
        assert execute_ues(Scenario(config.scenario), config, []) == []

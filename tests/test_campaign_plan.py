"""Tests for campaign shard planning and digests."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.campaign.plan import (
    DEFAULT_SHARD_TRIALS,
    CampaignPlan,
    ShardSpec,
    plan_effectiveness_sweep,
    plan_from_payload,
    standard_scheme_specs,
)
from repro.exceptions import ConfigurationError
from repro.sim.parallel import SchemeSpec
from repro.sim.runner import standard_schemes
from repro.utils.serialization import content_digest, to_jsonable


@pytest.fixture
def specs():
    return (SchemeSpec.of("Random"), SchemeSpec.of("Proposed", measurements_per_slot=4))


@pytest.fixture
def shard(small_config, specs) -> ShardSpec:
    return ShardSpec(
        config=small_config,
        schemes=specs,
        search_rate=0.2,
        base_seed=7,
        trial_start=4,
        trial_count=4,
    )


class TestShardSpec:
    def test_digest_is_stable(self, shard):
        clone = dataclasses.replace(shard)
        assert clone.digest == shard.digest

    def test_digest_changes_with_every_spec_field(self, shard, small_config):
        variants = [
            dataclasses.replace(shard, search_rate=0.3),
            dataclasses.replace(shard, base_seed=8),
            dataclasses.replace(shard, trial_start=0),
            dataclasses.replace(shard, trial_count=2),
            dataclasses.replace(
                shard, config=dataclasses.replace(small_config, snr_db=10.0)
            ),
            dataclasses.replace(shard, schemes=(SchemeSpec.of("Random"),)),
            dataclasses.replace(
                shard,
                schemes=(
                    SchemeSpec.of("Random"),
                    SchemeSpec.of("Proposed", measurements_per_slot=8),
                ),
            ),
        ]
        digests = {variant.digest for variant in variants}
        assert shard.digest not in digests
        assert len(digests) == len(variants)

    def test_trial_indices(self, shard):
        assert shard.trial_indices == (4, 5, 6, 7)

    def test_payload_roundtrip(self, shard):
        rebuilt = ShardSpec.from_payload(shard.spec_payload())
        assert rebuilt == shard
        assert rebuilt.digest == shard.digest

    def test_rejects_bad_geometry(self, small_config, specs):
        with pytest.raises(ConfigurationError):
            ShardSpec(small_config, specs, 1.5, 0, 0, 1)
        with pytest.raises(ConfigurationError):
            ShardSpec(small_config, specs, 0.2, 0, -1, 1)
        with pytest.raises(ConfigurationError):
            ShardSpec(small_config, specs, 0.2, 0, 0, 0)
        with pytest.raises(ConfigurationError):
            ShardSpec(small_config, (), 0.2, 0, 0, 1)


class TestPlanEffectivenessSweep:
    def test_covers_grid_rate_major(self, small_config, specs):
        plan = plan_effectiveness_sweep(
            small_config, specs, (0.1, 0.2), 5, base_seed=3, shard_trials=2
        )
        assert plan.search_rates == (0.1, 0.2)
        assert len(plan.shards) == 6  # ceil(5/2) shards per rate
        assert plan.total_trials == 10
        for rate in plan.search_rates:
            ranges = [
                (shard.trial_start, shard.trial_count)
                for shard in plan.shards_for_rate(rate)
            ]
            assert ranges == [(0, 2), (2, 2), (4, 1)]
        # rate-major order, like effectiveness_sweep's loops
        assert [shard.search_rate for shard in plan.shards[:3]] == [0.1, 0.1, 0.1]

    def test_default_shard_size(self, small_config, specs):
        plan = plan_effectiveness_sweep(small_config, specs, (0.1,), 20)
        assert all(
            shard.trial_count <= DEFAULT_SHARD_TRIALS for shard in plan.shards
        )

    def test_plan_payload_roundtrip(self, small_config, specs):
        plan = plan_effectiveness_sweep(
            small_config, specs, (0.1, 0.2), 5, base_seed=3, shard_trials=2
        )
        rebuilt = plan_from_payload(plan.payload())
        assert isinstance(rebuilt, CampaignPlan)
        assert rebuilt == plan
        assert rebuilt.digest == plan.digest

    def test_validation(self, small_config, specs):
        with pytest.raises(ConfigurationError):
            plan_effectiveness_sweep(small_config, specs, (), 5)
        with pytest.raises(ConfigurationError):
            plan_effectiveness_sweep(small_config, specs, (2.0,), 5)
        with pytest.raises(ConfigurationError):
            plan_effectiveness_sweep(small_config, specs, (0.1, 0.1), 5)
        with pytest.raises(ConfigurationError):
            plan_effectiveness_sweep(small_config, specs, (0.1,), 0)
        with pytest.raises(ConfigurationError):
            plan_effectiveness_sweep(small_config, (), (0.1,), 5)
        with pytest.raises(ConfigurationError):
            plan_effectiveness_sweep(
                small_config, specs, (0.1,), 5, shard_trials=0
            )


class TestDigestMemo:
    """Digests are computed once per object and never leak into its value."""

    @pytest.fixture
    def plan(self, small_config, specs) -> CampaignPlan:
        return plan_effectiveness_sweep(
            small_config, specs, (0.1, 0.2), 5, base_seed=3, shard_trials=2
        )

    def test_memo_matches_recomputation_after_payload_roundtrip(self, plan):
        rebuilt = plan_from_payload(plan.payload())
        for shard in rebuilt.shards:
            for _ in range(2):  # first access computes, second reads the memo
                assert shard.digest == content_digest(shard.spec_payload())
        assert rebuilt.digest == content_digest(rebuilt.payload()) == plan.digest

    def test_pickle_and_copy_keep_the_address(self, plan, shard):
        for value in (shard, plan):
            address = value.digest
            for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value)):
                assert clone == value
                assert clone.digest == address

    def test_replace_computes_a_fresh_address(self, plan, shard):
        address = shard.digest
        moved = dataclasses.replace(shard, base_seed=shard.base_seed + 1)
        assert moved.digest == content_digest(moved.spec_payload()) != address
        plan_address = plan.digest
        fewer = dataclasses.replace(plan, shards=plan.shards[:1])
        assert fewer.digest == content_digest(fewer.payload()) != plan_address

    def test_memo_invisible_to_value_semantics(self, small_config, specs):
        def fresh_plan():
            return plan_effectiveness_sweep(
                small_config, specs, (0.1,), 4, base_seed=3, shard_trials=2
            )

        def observed(value):
            return repr(value), hash(value), to_jsonable(value)

        for build in (fresh_plan, lambda: fresh_plan().shards[0]):
            untouched, memoized = build(), build()
            before = observed(memoized)
            assert memoized.digest
            assert observed(memoized) == before == observed(untouched)
            assert memoized == untouched


class TestStandardSchemeSpecs:
    def test_mirrors_standard_schemes(self):
        specs = standard_scheme_specs(measurements_per_slot=4)
        assert [spec.name for spec in specs] == list(standard_schemes())
        proposed = specs[-1]
        assert dict(proposed.params) == {"measurements_per_slot": 4}

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
from repro.cell.config import CellConfig
from repro.cell.shards import plan_cell, plan_cell_from_payload
from repro.channel.clusters import ClusterParams
from repro.exceptions import ConfigurationError
from repro.sim.config import ChannelKind
from repro.sim.parallel import SchemeSpec
from repro.sim.runner import standard_schemes
from repro.utils.serialization import (
    canonical_form,
    canonical_json,
    content_digest,
    to_jsonable,
)


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


#: A cluster generator far from the defaults, so a cached encoding of
#: the default config could not pass for it.
WIDE_CLUSTERS = ClusterParams(
    mean_clusters=3.5,
    max_clusters=9,
    power_decay_exponent=1.5,
    power_shadowing_db=0.0,
    subpaths_per_cluster=3,
    azimuth_spread_deg=12.5,
    elevation_spread_deg=1.0,
    azimuth_sine_range=(-0.7, 0.95),
    elevation_sine_range=(-0.25, 0.5),
)


class TestDigestsMatchTheReferenceEncoding:
    """Every cached-encoding digest equals ``content_digest(payload())``."""

    @pytest.fixture(
        params=[
            (channel, clusters)
            for channel in ChannelKind
            for clusters in (ClusterParams(), WIDE_CLUSTERS)
        ],
        ids=lambda param: f"{param[0].value}-{param[1].mean_clusters}",
    )
    def config(self, request, small_config):
        channel, clusters = request.param
        return dataclasses.replace(
            small_config, channel=channel, cluster_params=clusters
        )

    @pytest.mark.parametrize("shard_trials", [1, 2, 8])
    def test_campaign_plans(self, config, shard_trials):
        specs = (
            SchemeSpec.of("Random"),
            SchemeSpec.of("Proposed", measurements_per_slot=4, exploration=0.125),
        )
        plan = plan_effectiveness_sweep(
            config, specs, (0.05, 0.2), 9, base_seed=5, shard_trials=shard_trials
        )
        rebuilt = plan_from_payload(plan.payload())
        assert rebuilt.shards[0].config is not plan.shards[0].config
        for candidate in (plan, rebuilt):
            assert candidate.digest == content_digest(candidate.payload())
            for shard in candidate.shards:
                assert shard.canonical_spec() == canonical_json(shard.spec_payload())
                assert shard.digest == content_digest(shard.spec_payload())
        assert rebuilt.digest == plan.digest

    @pytest.mark.parametrize("shard_ues", [1, 2, 8])
    def test_cell_plans(self, config, shard_ues):
        cell = CellConfig(
            scenario=config,
            num_users=9,
            arrival_rate_hz=5000.0,
            search_rate=0.25,
            scheme=SchemeSpec.of("Proposed", measurements_per_slot=4),
            probe_budget_per_frame=16,
        )
        plan = plan_cell(cell, shard_ues=shard_ues)
        rebuilt = plan_cell_from_payload(plan.payload())
        assert rebuilt.config is not plan.config
        for candidate in (plan, rebuilt):
            assert candidate.digest == content_digest(candidate.payload())
            assert candidate.config_digest == content_digest(
                {"schema": "repro.cell.plan/1", "config": candidate.config.to_dict()}
            )
            for shard in candidate.shards:
                assert shard.digest == content_digest(shard.spec_payload())
        assert rebuilt.digest == plan.digest

    def test_equal_configs_that_encode_differently_keep_their_digests(
        self, small_config, specs
    ):
        """``snr_db=20`` equals ``snr_db=20.0`` but is written as ``20``."""
        as_int = dataclasses.replace(small_config, snr_db=20)
        as_float = dataclasses.replace(small_config, snr_db=20.0)
        assert as_int == as_float and hash(as_int) == hash(as_float)
        digests = set()
        for config in (as_float, as_int, as_float):
            assert canonical_form(config)[0] == config.to_dict()
            shard = ShardSpec(config, specs, 0.2, 0, 0, 1)
            assert shard.digest == content_digest(shard.spec_payload())
            digests.add(shard.digest)
        assert len(digests) == 2

    def test_spliced_text_matches_the_merged_payload(self):
        head = {"b": [1, 2.5], "z": {"y": None, "x": "\u00e9"}, 3: True}
        inner = {"k": (1, 2), "a": 0.1}
        assert canonical_json(head, {"m": canonical_json(inner)}) == canonical_json(
            {**head, "m": inner}
        )
        assert canonical_json(head, {}) == canonical_json(head)


class TestStandardSchemeSpecs:
    def test_mirrors_standard_schemes(self):
        specs = standard_scheme_specs(measurements_per_slot=4)
        assert [spec.name for spec in specs] == list(standard_schemes())
        proposed = specs[-1]
        assert dict(proposed.params) == {"measurements_per_slot": 4}

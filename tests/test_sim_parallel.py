"""Picklable scheme specs, and campaigns surviving crashed workers.

Campaign shards carry their schemes as :class:`SchemeSpec` values and run
through ``ShardSpec.execute`` in lease-loop workers; shards a launched
worker dies on must finish in-process with identical artifacts.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.baselines.random_search import RandomSearch
from repro.campaign import ShardStore, plan_effectiveness_sweep, run_campaign
from repro.exceptions import ConfigurationError
from repro.obs import MetricsRecorder, use_recorder
from repro.sim.parallel import SCHEME_BUILDERS, SchemeSpec


class TestSchemeSpec:
    def test_of_known(self):
        spec = SchemeSpec.of("Proposed", measurements_per_slot=4)
        assert spec.name == "Proposed"
        assert dict(spec.params) == {"measurements_per_slot": 4}

    def test_of_unknown(self):
        with pytest.raises(ConfigurationError):
            SchemeSpec.of("NotAScheme")

    def test_factory_builds_scheme(self, small_channel):
        spec = SchemeSpec.of("Random")
        algorithm = spec.build_factory()(small_channel)
        assert algorithm.name == "Random"

    def test_genie_gets_channel(self, small_channel):
        spec = SchemeSpec.of("Genie")
        algorithm = spec.build_factory()(small_channel)
        assert algorithm.name == "Genie"

    def test_registry_covers_all_names(self):
        for name in ("Random", "Scan", "Proposed", "Bidirectional", "UCB"):
            assert name in SCHEME_BUILDERS

    def test_params_hashable(self):
        assert hash(SchemeSpec.of("Proposed", exploration=0.1)) is not None


class _CrashInWorker(RandomSearch):
    """Hard-kills the process unless it is the test's parent process."""

    name = "Crash"

    def align(self, context, rng):
        if os.getpid() != int(os.environ.get("REPRO_TEST_PARENT_PID", "-1")):
            os._exit(1)
        return super().align(context, rng)


def _artifacts(plan, store):
    return [store.get(shard) for shard in plan.shards]


class TestBrokenPoolFallback:
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="needs fork so the patched registry reaches launched workers",
    )
    def test_real_worker_crash_falls_back(self, small_config, monkeypatch, tmp_path):
        """Every launched worker dies on its first shard; the in-process
        pass finishes them all, byte-identical to a ``max_workers=1`` run."""
        monkeypatch.setitem(SCHEME_BUILDERS, "Crash", _CrashInWorker)
        monkeypatch.setenv("REPRO_TEST_PARENT_PID", str(os.getpid()))
        plan = plan_effectiveness_sweep(
            small_config,
            (SchemeSpec.of("Crash"),),
            (0.3,),
            2,
            base_seed=3,
            shard_trials=1,
        )
        pooled = ShardStore(tmp_path / "pooled")
        solo = ShardStore(tmp_path / "solo")
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            report = run_campaign(plan, pooled, max_workers=2)
        run_campaign(plan, solo, max_workers=1)
        assert report.fallbacks == len(plan.shards)
        assert recorder.metrics.counter("campaign.fallbacks") == len(plan.shards)
        assert _artifacts(plan, pooled) == _artifacts(plan, solo)

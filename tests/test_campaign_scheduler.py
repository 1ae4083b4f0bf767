"""Tests for the campaign scheduler: retries, faults, resume determinism."""

from __future__ import annotations

import threading
import time

import pytest

from repro.campaign import (
    FaultInjector,
    ShardStore,
    assemble_effectiveness_sweep,
    campaign_status,
    plan_effectiveness_sweep,
    run_campaign,
)
from repro.exceptions import (
    CampaignAborted,
    CampaignError,
    ConfigurationError,
    ShardExecutionError,
)
from repro.obs import MetricsRecorder, use_recorder
from repro.sim.parallel import SchemeSpec
from repro.sim.persistence import save_effectiveness_sweep
from repro.sim.runner import run_trials
from repro.sim.sweep import effectiveness_sweep

SPECS = (SchemeSpec.of("Random"), SchemeSpec.of("Proposed", measurements_per_slot=4))
RATES = (0.2, 0.4)
TRIALS = 4
SEED = 11


@pytest.fixture
def plan(small_config):
    return plan_effectiveness_sweep(
        small_config, SPECS, RATES, TRIALS, base_seed=SEED, shard_trials=2
    )


@pytest.fixture
def store(tmp_path) -> ShardStore:
    return ShardStore(tmp_path / "store")


def _direct_sweep(small_scenario):
    """The uninterrupted, in-memory reference sweep."""
    schemes = {spec.name: spec.build_factory() for spec in SPECS}
    return effectiveness_sweep(small_scenario, schemes, RATES, TRIALS, base_seed=SEED)


class TestRunCampaign:
    def test_full_run_and_skip_on_rerun(self, plan, store):
        report = run_campaign(plan, store)
        assert report.executed == len(plan.shards)
        assert report.skipped == 0
        again = run_campaign(plan, store)
        assert again.executed == 0
        assert again.skipped == len(plan.shards)

    def test_matches_direct_sweep(self, plan, store, small_scenario):
        run_campaign(plan, store)
        sweep = assemble_effectiveness_sweep(plan, store)
        assert sweep.losses == _direct_sweep(small_scenario).losses

    def test_writes_manifest_up_front(self, plan, store):
        with pytest.raises(CampaignAborted):
            run_campaign(plan, store, fault_injector=FaultInjector(abort_after=1))
        assert plan.digest in store.load_manifests()

    def test_assemble_incomplete_raises(self, plan, store):
        with pytest.raises(CampaignError, match="incomplete"):
            assemble_effectiveness_sweep(plan, store)

    def test_injected_crash_is_retried(self, plan, store):
        injector = FaultInjector(crash_shards={0: 2})
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            report = run_campaign(plan, store, retries=2, fault_injector=injector)
        assert report.retries == 2
        assert report.executed == len(plan.shards)
        assert recorder.metrics.counter("campaign.retries") == 2.0
        assert recorder.metrics.counter("campaign.shards_executed") == float(
            len(plan.shards)
        )

    def test_exhausted_retries_fail_but_campaign_continues(self, plan, store):
        injector = FaultInjector(crash_shards={0: 10})
        with pytest.raises(ShardExecutionError, match="1 shard"):
            run_campaign(plan, store, retries=1, fault_injector=injector)
        status = campaign_status(plan, store)
        assert status.done == len(plan.shards) - 1  # the rest still completed
        assert status.pending == 1
        # no injector on resume: the failed shard completes
        run_campaign(plan, store)
        assert campaign_status(plan, store).complete

    def test_validation(self, plan, store):
        with pytest.raises(ConfigurationError):
            run_campaign(plan, store, retries=-1)
        with pytest.raises(ConfigurationError):
            run_campaign(plan, store, batch_trials=0)


class TestKillAndResumeDeterminism:
    @pytest.mark.parametrize("batch_trials", [None, 8])
    def test_resumed_output_byte_identical(
        self, plan, tmp_path, small_scenario, batch_trials
    ):
        fresh_store = ShardStore(tmp_path / "fresh")
        run_campaign(plan, fresh_store, batch_trials=batch_trials)
        fresh_path = tmp_path / "fresh.json"
        save_effectiveness_sweep(
            assemble_effectiveness_sweep(plan, fresh_store), fresh_path
        )

        # Kill the campaign partway through, then resume it.
        resumed_store = ShardStore(tmp_path / "resumed")
        with pytest.raises(CampaignAborted):
            run_campaign(
                plan,
                resumed_store,
                batch_trials=batch_trials,
                fault_injector=FaultInjector(abort_after=3),
            )
        mid = campaign_status(plan, resumed_store)
        assert mid.done == 3
        assert mid.pending == len(plan.shards) - 3
        run_campaign(plan, resumed_store, batch_trials=batch_trials)
        resumed_path = tmp_path / "resumed.json"
        save_effectiveness_sweep(
            assemble_effectiveness_sweep(plan, resumed_store), resumed_path
        )

        assert resumed_path.read_bytes() == fresh_path.read_bytes()
        # ... and both equal the uninterrupted in-memory sweep.
        direct_path = tmp_path / "direct.json"
        save_effectiveness_sweep(_direct_sweep(small_scenario), direct_path)
        assert fresh_path.read_bytes() == direct_path.read_bytes()

    def test_corrupt_shard_detected_and_repaired_on_resume(
        self, plan, store, small_scenario
    ):
        injector = FaultInjector(corrupt_shards=[1])
        run_campaign(plan, store, fault_injector=injector)
        status = campaign_status(plan, store)
        assert status.failed == 1
        assert status.done == len(plan.shards) - 1
        with pytest.raises(CampaignError):
            assemble_effectiveness_sweep(plan, store)
        run_campaign(plan, store)  # resume re-runs the corrupt shard
        assert campaign_status(plan, store).complete
        sweep = assemble_effectiveness_sweep(plan, store)
        assert sweep.losses == _direct_sweep(small_scenario).losses


class TestPooledExecution:
    def test_pooled_matches_serial(self, plan, tmp_path):
        serial_store = ShardStore(tmp_path / "serial")
        run_campaign(plan, serial_store)
        pooled_store = ShardStore(tmp_path / "pooled")
        run_campaign(plan, pooled_store, max_workers=2)
        serial = assemble_effectiveness_sweep(plan, serial_store)
        pooled = assemble_effectiveness_sweep(plan, pooled_store)
        assert pooled.losses == serial.losses


class TestTrialGeneratorContract:
    def test_shard_trials_reuse_global_indices(self, small_config, small_scenario):
        """A shard over trials [2, 4) reproduces run_trials' trials 2 and 3."""
        plan = plan_effectiveness_sweep(
            small_config, SPECS, (0.3,), 4, base_seed=5, shard_trials=2
        )
        schemes = {spec.name: spec.build_factory() for spec in SPECS}
        reference = run_trials(small_scenario, schemes, 0.3, 4, base_seed=5)
        tail_shard = plan.shards_for_rate(0.3)[1]
        assert tail_shard.trial_indices == (2, 3)
        losses = tail_shard.execute()
        for name in ("Random", "Proposed"):
            assert losses[name] == [
                reference[2][name].loss_db,
                reference[3][name].loss_db,
            ]


class TestLeaseIntegration:
    """run_campaign participates in the same claim protocol as workers."""

    def test_solo_run_leaves_no_claims_behind(self, plan, store):
        report = run_campaign(plan, store)
        assert (report.executed, report.skipped) == (len(plan.shards), 0)
        assert store.read_claims(plan.digest) == {}

    def test_foreign_live_lease_defers_then_absorbs(self, plan, store):
        from repro.campaign import LeaseManager
        from repro.campaign.worker import execute_shard_in_process
        from repro.obs import get_recorder

        contested = plan.shards[0]
        foreign = LeaseManager(store, plan.digest, owner="other-host")
        assert foreign.acquire(contested.digest)
        losses, _ = execute_shard_in_process(
            contested, None, None, get_recorder(), False
        )

        def publish_later() -> None:
            # Wait until the scheduler has visibly started on the rest of
            # the plan, then complete the contested shard "remotely".
            deadline = time.time() + 30.0
            while time.time() < deadline:
                beats = store.read_heartbeats(plan.digest)
                if any(b.get("status") == "done" for b in beats.values()):
                    break
                time.sleep(0.01)
            store.put(contested, losses)
            foreign.release(contested.digest)

        thread = threading.Thread(target=publish_later)
        thread.start()
        try:
            report = run_campaign(plan, store)
        finally:
            thread.join()
        assert report.executed == len(plan.shards) - 1
        assert report.skipped == 1
        assert campaign_status(plan, store).complete

    def test_expired_foreign_lease_is_taken_over(self, plan, store):
        import time as _time

        from repro.campaign import LeaseRecord
        from repro.utils.serialization import dump

        contested = plan.shards[0]
        now = _time.time()
        ghost = LeaseRecord(
            plan=plan.digest,
            shard=contested.digest,
            owner="ghost",
            token="otherhost:1:dead",
            pid=1,
            host="not-this-host",
            acquired_unix_s=now - 500.0,
            renewed_unix_s=now - 400.0,
            ttl_s=30.0,
        )
        path = store.claim_path(plan.digest, contested.digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        dump(ghost.to_payload(), path)

        recorder = MetricsRecorder()
        with use_recorder(recorder):
            report = run_campaign(plan, store)
        assert report.executed == len(plan.shards)
        assert recorder.metrics.counter("campaign.lease_takeovers") == 1.0
        assert store.read_claims(plan.digest) == {}
        assert campaign_status(plan, store).complete


class TestDeterministicBackoffJitter:
    """Retry backoff is a pure function of (shard digest, attempt)."""

    def test_delay_is_reproducible(self):
        from repro.campaign import backoff_delay

        plan_digests = [f"d{i}" for i in range(8)]
        first = [backoff_delay(0.2, 2, digest) for digest in plan_digests]
        second = [backoff_delay(0.2, 2, digest) for digest in plan_digests]
        assert first == second

    def test_delay_varies_across_shards_within_bounds(self):
        from repro.campaign import backoff_delay

        delays = [backoff_delay(0.2, 1, f"d{i}") for i in range(8)]
        assert len(set(delays)) == len(delays)
        assert all(0.1 <= delay < 0.3 for delay in delays)  # [0.5, 1.5) x base

    def test_zero_backoff_stays_zero(self):
        from repro.campaign import backoff_delay

        assert backoff_delay(0.0, 5, "digest") == 0.0

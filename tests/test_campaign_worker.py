"""Tests for lease-based workers: solo, contended, killed, and launched."""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.campaign import (
    FaultInjector,
    ShardStore,
    assemble_effectiveness_sweep,
    campaign_status,
    launch_campaign,
    plan_effectiveness_sweep,
    publish_shard,
    run_campaign,
    run_worker,
    worker_attribution,
)
from repro.campaign.distributed import _worker_entry
from repro.campaign.lease import LeaseManager
from repro.campaign.worker import execute_shard_in_process
from repro.exceptions import ConfigurationError
from repro.obs import MetricsRecorder, get_recorder, use_recorder
from repro.sim.parallel import SchemeSpec
from repro.sim.persistence import save_effectiveness_sweep
from repro.sim.sweep import effectiveness_sweep

SPECS = (SchemeSpec.of("Random"), SchemeSpec.of("Proposed", measurements_per_slot=4))
RATES = (0.2, 0.4)
TRIALS = 4
SEED = 11

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture
def plan(small_config):
    return plan_effectiveness_sweep(
        small_config, SPECS, RATES, TRIALS, base_seed=SEED, shard_trials=2
    )


@pytest.fixture
def store(tmp_path) -> ShardStore:
    return ShardStore(tmp_path / "store")


def _direct_sweep(small_scenario):
    schemes = {spec.name: spec.build_factory() for spec in SPECS}
    return effectiveness_sweep(small_scenario, schemes, RATES, TRIALS, base_seed=SEED)


def _reference_bytes(plan, tmp_path):
    """Artifact bytes of an uninterrupted single-supervisor campaign."""
    reference_store = ShardStore(tmp_path / "reference")
    run_campaign(plan, reference_store)
    path = tmp_path / "reference.json"
    save_effectiveness_sweep(assemble_effectiveness_sweep(plan, reference_store), path)
    return path.read_bytes()


def _assembled_bytes(plan, store, tmp_path, name="assembled.json"):
    path = tmp_path / name
    save_effectiveness_sweep(assemble_effectiveness_sweep(plan, store), path)
    return path.read_bytes()


class TestRunWorker:
    def test_solo_worker_completes_plan(self, plan, store, small_scenario):
        report = run_worker(plan, store, worker_id="w0")
        assert report.executed == len(plan.shards)
        assert report.skipped == 0
        assert report.failed_digests == ()
        assert campaign_status(plan, store).complete
        sweep = assemble_effectiveness_sweep(plan, store)
        assert sweep.losses == _direct_sweep(small_scenario).losses

    def test_matches_supervisor_byte_for_byte(self, plan, store, tmp_path):
        run_worker(plan, store, worker_id="w0")
        assert _assembled_bytes(plan, store, tmp_path) == _reference_bytes(
            plan, tmp_path
        )

    def test_second_pass_skips_everything(self, plan, store):
        run_worker(plan, store)
        again = run_worker(plan, store)
        assert again.executed == 0
        assert again.skipped == len(plan.shards)

    def test_releases_all_leases_on_exit(self, plan, store):
        run_worker(plan, store)
        assert store.read_claims(plan.digest) == {}

    def test_heartbeats_carry_worker_id(self, plan, store):
        run_worker(plan, store, worker_id="w5")
        beats = store.read_heartbeats(plan.digest)
        assert len(beats) == len(plan.shards)
        assert all(record["worker"] == "w5" for record in beats.values())
        assert worker_attribution(store, plan) == {"w5": len(plan.shards)}

    def test_max_shards_budget(self, plan, store):
        report = run_worker(plan, store, max_shards=1)
        assert report.executed == 1
        assert store.read_claims(plan.digest) == {}  # nothing left claimed
        rest = run_worker(plan, store)
        assert rest.executed == len(plan.shards) - 1

    def test_failures_are_reported_not_raised(self, plan, store):
        injector = FaultInjector(crash_shards={0: 10})
        report = run_worker(plan, store, retries=1, fault_injector=injector)
        assert len(report.failed_digests) == 1
        assert report.executed == len(plan.shards) - 1
        # A later (healthy) worker finishes the campaign.
        retry = run_worker(plan, store)
        assert retry.executed == 1
        assert campaign_status(plan, store).complete

    def test_claim_batch_amortization(self, plan, store, small_scenario):
        report = run_worker(plan, store, claim_batch=len(plan.shards))
        assert report.executed == len(plan.shards)
        sweep = assemble_effectiveness_sweep(plan, store)
        assert sweep.losses == _direct_sweep(small_scenario).losses

    def test_validation(self, plan, store):
        with pytest.raises(ConfigurationError):
            run_worker(plan, store, retries=-1)
        with pytest.raises(ConfigurationError):
            run_worker(plan, store, claim_batch=0)
        with pytest.raises(ConfigurationError):
            run_worker(plan, store, batch_trials=0)

    def test_worker_counters(self, plan, store):
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            run_worker(plan, store, worker_id="w1")
        assert recorder.metrics.counter("campaign.shards_executed") == float(
            len(plan.shards)
        )
        assert recorder.metrics.counter("campaign.heartbeats") > 0.0

    def test_worker_span_carries_lane(self, plan, store, tmp_path):
        from repro.obs import TraceRecorder, read_trace

        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path) as recorder:
            with use_recorder(recorder):
                run_worker(plan, store, worker_id="w1")
        spans = [
            record
            for record in read_trace(path)
            if record["type"] == "span" and record["name"] == "campaign.worker"
        ]
        assert len(spans) == 1
        assert spans[0]["attrs"]["worker_id"] == "w1"
        assert spans[0]["attrs"]["worker"] == 1  # trace lane from the id
        shard_spans = [
            record
            for record in read_trace(path)
            if record["type"] == "span" and record["name"] == "campaign.shard"
        ]
        assert shard_spans
        assert all(s["attrs"]["worker_id"] == "w1" for s in shard_spans)


class TestLeaseContention:
    def test_two_workers_partition_the_plan(self, plan, store, tmp_path):
        reports = [None, None]

        def work(slot: int) -> None:
            reports[slot] = run_worker(
                plan, store, worker_id=f"w{slot}", poll_s=0.05
            )

        threads = [threading.Thread(target=work, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        executed = sum(report.executed for report in reports)
        # Leases make execution mutually exclusive: every shard ran once.
        assert executed == len(plan.shards)
        assert all(report.discarded == 0 for report in reports)
        assert campaign_status(plan, store).complete
        assert _assembled_bytes(plan, store, tmp_path) == _reference_bytes(
            plan, tmp_path
        )

    def test_zombie_publish_discards_when_artifact_exists(self, plan, store):
        shard = plan.shards[0]
        zombie = LeaseManager(store, plan.digest, owner="zombie")
        assert zombie.acquire(shard.digest)
        losses, digests = execute_shard_in_process(
            shard, None, None, get_recorder(), False
        )
        # The zombie stalls; its lease is taken over and the new owner
        # completes the shard.
        thief = LeaseManager(store, plan.digest, owner="thief")
        from repro.utils.serialization import dump

        dump(thief._record(shard.digest, time.time(), time.time()).to_payload(),
             zombie.path(shard.digest))
        publish_shard(store, shard, losses, digests=digests, lease=thief)
        before = store.shard_path(shard.digest).read_bytes()
        # The zombie revives and tries to publish: discarded, bytes intact.
        assert not publish_shard(store, shard, losses, digests=digests, lease=zombie)
        assert store.shard_path(shard.digest).read_bytes() == before

    def test_zombie_publish_proceeds_when_no_artifact(self, plan, store):
        shard = plan.shards[0]
        zombie = LeaseManager(store, plan.digest, owner="zombie")
        assert zombie.acquire(shard.digest)
        losses, _ = execute_shard_in_process(
            shard, None, None, get_recorder(), False
        )
        zombie._held.clear()  # lost the lease; claim file shows another token
        from repro.utils.serialization import dump

        thief = LeaseManager(store, plan.digest, owner="thief")
        dump(thief._record(shard.digest, time.time(), time.time()).to_payload(),
             zombie.path(shard.digest))
        # No artifact yet: determinism makes the stale write the right one.
        assert publish_shard(store, shard, losses, lease=zombie)
        assert store.has(shard)


def _hold_lease_and_hang(store_root: str, plan_digest: str, shard_digest: str) -> None:
    """Child-process body: claim one shard, then never renew (stall)."""
    holder_store = ShardStore(store_root)
    lease = LeaseManager(holder_store, plan_digest, owner="doomed")
    assert lease.acquire(shard_digest)
    holder_store.write_heartbeat(
        plan_digest, shard_digest, "running", worker="doomed"
    )
    time.sleep(120.0)  # SIGKILLed long before this returns


@pytest.mark.skipif(not HAS_FORK, reason="requires the fork start method")
class TestKilledWorker:
    def test_sigkilled_workers_shards_are_reassigned(self, plan, store, tmp_path):
        shard = plan.shards[0]
        context = multiprocessing.get_context("fork")
        holder = context.Process(
            target=_hold_lease_and_hang,
            args=(str(store.root), plan.digest, shard.digest),
        )
        holder.start()
        deadline = time.time() + 10.0
        while not store.claim_path(plan.digest, shard.digest).exists():
            assert time.time() < deadline, "holder never claimed the shard"
            time.sleep(0.01)
        os.kill(holder.pid, signal.SIGKILL)
        holder.join()
        # The survivor takes over the dead worker's lease immediately
        # (dead-pid fast path) and completes the whole campaign.
        report = run_worker(plan, store, worker_id="survivor", poll_s=0.05)
        assert report.takeovers >= 1
        assert report.executed == len(plan.shards)
        assert campaign_status(plan, store).complete
        assert _assembled_bytes(plan, store, tmp_path) == _reference_bytes(
            plan, tmp_path
        )

    def test_sigkill_one_of_two_os_workers_mid_campaign(
        self, plan, store, tmp_path
    ):
        store.save_manifest(plan)
        context = multiprocessing.get_context("fork")
        options = {"poll_s": 0.05, "lease_ttl_s": 30.0}
        victim = context.Process(
            target=_worker_entry, args=(str(store.root), plan.digest, "w0", options)
        )
        survivor = context.Process(
            target=_worker_entry, args=(str(store.root), plan.digest, "w1", options)
        )
        victim.start()
        deadline = time.time() + 30.0
        while not store.read_claims(plan.digest):
            assert time.time() < deadline, "victim never claimed a shard"
            time.sleep(0.01)
        os.kill(victim.pid, signal.SIGKILL)  # mid-shard, lease still on disk
        survivor.start()
        victim.join()
        survivor.join(timeout=300.0)
        assert survivor.exitcode == 0
        assert campaign_status(plan, store).complete
        assert _assembled_bytes(plan, store, tmp_path) == _reference_bytes(
            plan, tmp_path
        )


@pytest.mark.skipif(not HAS_FORK, reason="requires the fork start method")
class TestLaunchCampaign:
    def test_launch_completes_and_attributes(self, plan, store, tmp_path):
        report = launch_campaign(plan, store, num_workers=2, poll_s=0.05)
        assert report.complete
        assert report.num_workers == 2
        assert all(code == 0 for code in report.exit_codes)
        assert sum(report.attribution.values()) == len(plan.shards)
        assert set(report.attribution) <= {"w0", "w1"}
        assert _assembled_bytes(plan, store, tmp_path) == _reference_bytes(
            plan, tmp_path
        )

    def test_launch_validation(self, plan, store):
        with pytest.raises(ConfigurationError):
            launch_campaign(plan, store, num_workers=0)

    def test_launch_skips_completed_campaign_quickly(self, plan, store):
        run_campaign(plan, store)
        report = launch_campaign(plan, store, num_workers=2, poll_s=0.05)
        assert report.complete
        assert report.exit_codes == (0, 0)

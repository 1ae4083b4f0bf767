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
from repro.campaign.worker import _scan_start, execute_shard_in_process
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

    @pytest.mark.parametrize("budget", [1, 4])
    def test_max_shards_budget(self, small_config, store, budget):
        plan = plan_effectiveness_sweep(
            small_config, SPECS, RATES, TRIALS, base_seed=SEED, shard_trials=1
        )
        report = run_worker(plan, store, max_shards=budget)
        assert report.executed == budget
        assert sum(store.has(shard) for shard in plan.shards) == budget
        assert store.read_claims(plan.digest) == {}  # nothing left claimed
        rest = run_worker(plan, store)
        assert rest.executed == len(plan.shards) - budget

    def test_failures_are_reported_not_raised(self, plan, store):
        injector = FaultInjector(crash_shards={0: 10})
        report = run_worker(plan, store, retries=1, fault_injector=injector)
        assert len(report.failed_digests) == 1
        assert report.executed == len(plan.shards) - 1
        # A later (healthy) worker finishes the campaign.
        retry = run_worker(plan, store)
        assert retry.executed == 1
        assert campaign_status(plan, store).complete

    def test_validation(self, plan, store):
        with pytest.raises(ConfigurationError):
            run_worker(plan, store, retries=-1)
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


class TestScenarioPriming:
    """A worker builds the scenario right before its first claim, only."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import repro.campaign.worker as worker

        calls = []
        prime = worker._scenario_for
        acquire = LeaseManager.acquire

        def counted_prime(config):
            calls.append("prime")
            return prime(config)

        def counted_acquire(self, digest):
            calls.append("acquire")
            return acquire(self, digest)

        monkeypatch.setattr(worker, "_scenario_for", counted_prime)
        monkeypatch.setattr(LeaseManager, "acquire", counted_acquire)
        return calls

    def test_complete_store_builds_nothing(self, plan, store, calls):
        run_campaign(plan, store)
        calls.clear()
        report = run_worker(plan, store, worker_id="w0")
        assert report.skipped == len(plan.shards)
        assert calls == []

    @pytest.mark.parametrize("batch_trials", [1, 3])
    def test_fresh_store_primes_once_before_the_first_claim(
        self, plan, store, calls, batch_trials
    ):
        report = run_worker(plan, store, worker_id="w0", batch_trials=batch_trials)
        assert report.executed == len(plan.shards)
        assert calls.count("prime") == 1
        assert calls[:2] == ["prime", "acquire"]
        assert calls.count("acquire") == len(plan.shards)


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


class TestScanOrder:
    def test_scan_start_is_a_golden_ratio_offset(self):
        assert _scan_start(None, 128) == 0
        assert _scan_start(0, 128) == 0
        assert _scan_start(1, 128) == 79  # frac(1 / phi) = 0.618...
        assert _scan_start(7, 0) == 0
        starts = [_scan_start(lane, 128) for lane in range(1, 65)]
        assert all(0 <= start < 128 for start in starts)
        assert len(set(starts)) == len(starts)

    def test_indexed_worker_starts_away_from_the_plan_head(
        self, plan, store, tmp_path
    ):
        report = run_worker(plan, store, worker_id="w1", max_shards=1)
        assert report.executed == 1
        done = [shard for shard in plan.shards if store.has(shard)]
        assert len(done) == 1
        assert done[0] is not plan.shards[0]
        run_worker(plan, store, worker_id="w1")
        assert _assembled_bytes(plan, store, tmp_path) == _reference_bytes(
            plan, tmp_path
        )

    @pytest.mark.parametrize("worker_id", ["w0", "alpha"])
    def test_lane_zero_and_unindexed_ids_keep_plan_order(
        self, plan, store, worker_id
    ):
        run_worker(plan, store, worker_id=worker_id, max_shards=1)
        assert [store.has(shard) for shard in plan.shards] == [True] + [False] * (
            len(plan.shards) - 1
        )


class TestIdleBackoff:
    def test_worker_wakes_soon_after_the_last_foreign_shard_lands(
        self, plan, store
    ):
        """A worker idle on another's last shard must not sleep out a
        whole ``poll_s`` once that shard is done."""
        held = plan.shards[-1]
        holder = LeaseManager(store, plan.digest, owner="holder")
        assert holder.acquire(held.digest)
        losses, _ = execute_shard_in_process(
            held, None, None, get_recorder(), False
        )
        others = [shard for shard in plan.shards if shard is not held]
        landed = []

        def finish_held_shard() -> None:
            # Complete the held shard only once the worker has run out of
            # other work, so it is idle on this lease when the shard lands.
            deadline = time.time() + 60.0
            while not all(store.has(shard) for shard in others):
                if time.time() > deadline:
                    return
                time.sleep(0.005)
            time.sleep(0.05)
            store.put(held, losses)
            holder.release(held.digest)
            landed.append(time.time())

        thread = threading.Thread(target=finish_held_shard)
        thread.start()
        report = run_worker(plan, store, worker_id="w0", poll_s=2.0)
        returned = time.time()
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert landed, "the worker never finished the other shards"
        assert report.executed == len(plan.shards) - 1
        assert report.skipped == 1
        assert returned - landed[0] < 1.0
        assert campaign_status(plan, store).complete


def _hold_lease_and_hang(store_root: str, plan_digest: str, shard_digest: str) -> None:
    """Child-process body: claim one shard, then never renew (stall)."""
    holder_store = ShardStore(store_root)
    lease = LeaseManager(holder_store, plan_digest, owner="doomed")
    assert lease.acquire(shard_digest)
    holder_store.write_heartbeat(
        plan_digest, shard_digest, "running", shard_index=0, worker="doomed"
    )
    time.sleep(120.0)  # SIGKILLed long before this returns


def _cell_plan(small_config):
    """A 24-UE cell plan in three 8-UE shards: the loop's second shard kind."""
    from repro.cell import CellConfig, plan_cell

    config = CellConfig(
        scenario=small_config,
        num_users=24,
        arrival_rate_hz=5000.0,
        search_rate=0.25,
        probe_budget_per_frame=16,
        interference_coupling=0.2,
    )
    return plan_cell(config, shard_ues=8)


def _cell_summary_bytes(plan, tmp_path, name, store=None):
    from repro.cell import serve_cell

    path = tmp_path / name
    report = serve_cell(
        plan.config, store=store, shard_ues=plan.shards[0].ue_count, summary_path=path
    )
    return report, path.read_bytes()


@pytest.mark.skipif(not HAS_FORK, reason="requires the fork start method")
class TestKilledWorker:
    @pytest.mark.parametrize("kind", ["campaign", "cell"])
    def test_sigkilled_workers_shards_are_reassigned(
        self, kind, plan, store, tmp_path, small_config
    ):
        if kind == "cell":
            plan = _cell_plan(small_config)
        shard = plan.shards[0]
        context = multiprocessing.get_context("fork")
        holder = context.Process(
            target=_hold_lease_and_hang,
            args=(str(store.root), plan.digest, shard.digest),
        )
        holder.start()
        deadline = time.time() + 10.0
        while shard.digest not in store.read_heartbeats(plan.digest):
            assert time.time() < deadline, "holder never claimed the shard"
            time.sleep(0.01)
        assert store.claim_path(plan.digest, shard.digest).exists()
        assert holder.is_alive()
        os.kill(holder.pid, signal.SIGKILL)
        holder.join()
        # The survivor takes over the dead worker's lease immediately
        # (dead-pid fast path) and completes the whole campaign.
        report = run_worker(plan, store, worker_id="survivor", poll_s=0.05)
        assert report.takeovers >= 1
        assert report.executed == len(plan.shards)
        assert campaign_status(plan, store).complete
        if kind == "cell":
            # Serving over the survivor's store reads every shard back.
            resumed, served = _cell_summary_bytes(plan, tmp_path, "served.json", store)
            assert resumed.cached_shards == len(plan.shards)
            assert served == _cell_summary_bytes(plan, tmp_path, "reference.json")[1]
            return
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
            target=_worker_entry, args=(store, plan, "w0", options)
        )
        survivor = context.Process(
            target=_worker_entry, args=(store, plan, "w1", options)
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

    def test_reports_and_large_snapshots_come_home(self, plan, store, monkeypatch):
        """Every worker's report reaches the launcher, and a metrics
        snapshot larger than a pipe buffer neither blocks its worker nor
        is lost: the launcher reads each pipe while it waits."""
        from repro.obs.metrics import MetricsRegistry

        snapshot = MetricsRegistry.snapshot

        def padded(self):
            raw = snapshot(self)
            raw["gauges"].update({f"pad.{i}": float(i) for i in range(20000)})
            return raw

        monkeypatch.setattr(MetricsRegistry, "snapshot", padded)
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            report = launch_campaign(plan, store, num_workers=2, poll_s=0.05)
        assert report.exit_codes == (0, 0)
        assert [r.worker_id for r in report.reports] == ["w0", "w1"]
        assert sum(r.executed for r in report.reports) == len(plan.shards)
        assert recorder.metrics.gauges["pad.19999"] == 19999.0
        assert recorder.metrics.counter("campaign.shards_executed") == len(
            plan.shards
        )

    def test_launch_skips_completed_campaign_quickly(self, plan, store):
        run_campaign(plan, store)
        report = launch_campaign(plan, store, num_workers=2, poll_s=0.05)
        assert report.complete
        assert report.exit_codes == (0, 0)

    def test_launch_repairs_truncated_manifest(self, plan, store):
        path = store.save_manifest(plan)
        intact = path.read_bytes()
        path.write_bytes(intact[: len(intact) // 2])
        report = launch_campaign(plan, store, num_workers=2, poll_s=0.05)
        assert report.complete
        assert report.exit_codes == (0, 0)
        assert path.read_bytes() == intact
        assert store.load_manifests() == {plan.digest: plan}

    def test_launcher_wakes_on_worker_exit(self, small_config, store):
        # A fresh plan outlives the launcher's first status check, so only
        # waking on worker exit (not the 30 s tick) returns promptly; the
        # second launch runs over the then-completed store.
        plan = plan_effectiveness_sweep(
            small_config, (SchemeSpec.of("Random"),), (0.2,), 2, base_seed=SEED
        )
        for _ in range(2):
            started = time.monotonic()
            report = launch_campaign(plan, store, num_workers=2, watch_interval_s=30)
            assert time.monotonic() - started < 10.0
            assert report.complete
            assert report.exit_codes == (0, 0)


def _tally_calls(monkeypatch, owner, name, tally, counts=lambda *args: True):
    """Wrap ``owner.name`` to append one byte to ``tally`` per counted call.

    An append-only file counts calls made in forked workers as well.
    """
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        if counts(*args):
            fd = os.open(tally, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, b".")
            finally:
                os.close(fd)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def _tallied(tally) -> int:
    return len(tally.read_bytes()) if tally.exists() else 0


class TestCoordinationCost:
    """What the lease loop's coordination costs per shard, pinned."""

    @pytest.mark.parametrize("kind", ["campaign", "cell"])
    def test_executed_shard_costs_two_fsyncs(
        self, kind, plan, store, small_config, monkeypatch
    ):
        if kind == "cell":
            plan = _cell_plan(small_config)
        store.save_manifest(plan)
        fsyncs = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            fsyncs.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        report = run_worker(plan, store, worker_id="w0", max_shards=1)
        assert report.executed == 1
        assert len(fsyncs) == 2  # the claim and the artifact
        beats = store.read_heartbeats(plan.digest)
        assert [beat["status"] for beat in beats.values()] == ["done"]

    @pytest.mark.skipif(not HAS_FORK, reason="requires the fork start method")
    @pytest.mark.parametrize("entry", ["launch", "run --workers 2"])
    def test_resume_reads_each_artifact_once(
        self, entry, plan, store, tmp_path, monkeypatch
    ):
        launch_campaign(plan, store, num_workers=2, poll_s=0.05)
        tally = tmp_path / "gets"
        _tally_calls(monkeypatch, ShardStore, "get", tally)
        if entry == "launch":
            report = launch_campaign(plan, store, num_workers=2, poll_s=0.05)
            assert report.complete and report.exit_codes == (0, 0)
            assert report.done_digests == {shard.digest for shard in plan.shards}
            assert [r.skipped for r in report.reports] == [len(plan.shards)] * 2
        else:
            report = run_campaign(plan, store, max_workers=2)
            assert report.executed == 0 and report.fallbacks == 0
            assert report.skipped == len(plan.shards)
        assert _tallied(tally) == len(plan.shards)

    @pytest.mark.skipif(not HAS_FORK, reason="requires the fork start method")
    def test_launched_workers_reuse_the_verified_manifest(
        self, plan, store, tmp_path, monkeypatch
    ):
        import repro.campaign.store as store_module

        run_campaign(plan, store)
        manifest = str(store.manifest_path(plan.digest))
        tally = tmp_path / "manifest-loads"
        _tally_calls(
            monkeypatch, store_module, "load", tally, lambda path: str(path) == manifest
        )
        launcher_store = ShardStore(store.root)
        report = launch_campaign(plan, launcher_store, num_workers=2, poll_s=0.05)
        assert report.complete and report.exit_codes == (0, 0)
        assert _tallied(tally) == 1  # the launcher's check only
        # A store that has not verified it yet (a standalone worker's)
        # parses it once.
        run_worker(plan, ShardStore(store.root))
        assert _tallied(tally) == 2

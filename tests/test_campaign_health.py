"""Tests for campaign heartbeats and the health dashboard classification."""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import socket
import time

import pytest

from repro.campaign import (
    FaultInjector,
    ShardStore,
    assemble_effectiveness_sweep,
    campaign_health,
    plan_effectiveness_sweep,
    render_campaign_health,
    run_campaign,
)
from repro.campaign.health import MIN_STALL_SECONDS
from repro.exceptions import ShardExecutionError
from repro.sim.parallel import SchemeSpec

SPECS = (SchemeSpec.of("Random"), SchemeSpec.of("Scan"))
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


class TestHeartbeatStore:
    def test_write_and_read_roundtrip(self, store):
        store.write_heartbeat("plan1", "shardA", "running", shard_index=0, attempt=1)
        records = store.read_heartbeats("plan1")
        record = records["shardA"]
        assert record["status"] == "running"
        assert record["attempt"] == 1
        assert record["schema"] == "repro.campaign.heartbeat/1"
        assert record["updated_unix_s"] <= time.time()

    def test_rewrites_replace(self, store):
        store.write_heartbeat("p", "s", "running", shard_index=0)
        store.write_heartbeat("p", "s", "done", shard_index=0, duration_s=1.5)
        record = store.read_heartbeats("p")["s"]
        assert record["status"] == "done"
        assert record["duration_s"] == 1.5

    def test_unreadable_records_are_skipped(self, store):
        store.write_heartbeat("p", "good", "running", shard_index=0)
        with store.journal_path("p").open("a", encoding="utf-8") as journal:
            journal.write('{"kind": "campaign-heartbeat-v1"}\n{truncated\n')
        # A per-shard file from the old layout is not a journal.
        (store.heartbeat_dir("p") / "legacy.json").write_text("{}", encoding="utf-8")
        assert set(store.read_heartbeats("p")) == {"good"}

    def test_one_journal_line_per_record(self, store):
        store.write_heartbeat("p", "a", "retrying", shard_index=0, attempt=1)
        store.write_heartbeat("p", "a", "done", shard_index=0)
        path = store.journal_path("p")
        assert path.name == f"{socket.gethostname()}-{os.getpid()}.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["status"] for line in lines] == ["retrying", "done"]

    def test_torn_last_line_hides_no_other_record(self, store):
        store.write_heartbeat("p", "a", "done", shard_index=0)
        store.write_heartbeat("p", "b", "failed", shard_index=1, error="boom")
        path = store.journal_path("p")
        with path.open("a", encoding="utf-8") as journal:
            journal.write('{"kind": "campaign-heartbeat-v1", "shard": "c", "sta')
        records = store.read_heartbeats("p")
        assert {digest: r["status"] for digest, r in records.items()} == {
            "a": "done",
            "b": "failed",
        }
        # A later record lands on a line of its own, not glued to the tear.
        store.write_heartbeat("p", "c", "done", shard_index=2)
        assert set(store.read_heartbeats("p")) == {"a", "b", "c"}

    def test_latest_record_wins_across_journals(self, store):
        now = time.time()
        store.write_heartbeat(
            "p", "s", "failed", shard_index=0, updated_unix_s=now - 5.0, worker="w0"
        )
        record = {
            **store.read_heartbeats("p")["s"],
            "status": "done",
            "updated_unix_s": now,
            "worker": "w1",
        }
        other = store.heartbeat_dir("p") / "other-host-1.jsonl"
        other.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert store.read_heartbeats("p")["s"]["worker"] == "w1"
        store.write_heartbeat(
            "p", "s", "retrying", shard_index=0, updated_unix_s=now + 5.0
        )
        assert store.read_heartbeats("p")["s"]["status"] == "retrying"

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="requires the fork start method",
    )
    def test_two_writer_processes_never_share_a_journal(self, store):
        def beat(shard: str) -> None:
            for attempt in range(3):
                store.write_heartbeat(
                    "p", shard, "retrying", shard_index=0, attempt=attempt
                )

        context = multiprocessing.get_context("fork")
        writers = [context.Process(target=beat, args=(f"s{i}",)) for i in range(2)]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join()
        assert [writer.exitcode for writer in writers] == [0, 0]
        beat("s-parent")
        host = socket.gethostname()
        journals = sorted(store.heartbeat_dir("p").glob("*.jsonl"))
        pids = [writer.pid for writer in writers] + [os.getpid()]
        assert sorted(p.name for p in journals) == sorted(
            f"{host}-{pid}.jsonl" for pid in pids
        )
        for path in journals:
            records = [
                json.loads(line)
                for line in path.read_text(encoding="utf-8").splitlines()
            ]
            assert len(records) == 3
            assert {f"{host}-{r['pid']}.jsonl" for r in records} == {path.name}
            assert len({r["shard"] for r in records}) == 1
        assert set(store.read_heartbeats("p")) == {"s0", "s1", "s-parent"}

    def test_missing_campaign_is_empty(self, store):
        assert store.read_heartbeats("nope") == {}


class TestCampaignHealth:
    def test_untouched_campaign_is_all_pending(self, plan, store):
        health = campaign_health(plan, store)
        assert health.counts["pending"] == len(plan.shards)
        assert not health.complete
        assert health.eta_s is None

    def test_completed_campaign_is_all_done(self, plan, store):
        run_campaign(plan, store)
        health = campaign_health(plan, store)
        assert health.complete
        assert health.counts["done"] == len(plan.shards)
        assert health.done_trials == plan.total_trials
        assert health.median_shard_s is not None
        # Every shard got a "done" heartbeat with its duration.
        beats = store.read_heartbeats(plan.digest)
        assert len(beats) == len(plan.shards)
        assert all(b["status"] == "done" for b in beats.values())

    def test_heartbeats_opt_out(self, plan, store):
        run_campaign(plan, store)
        shutil.rmtree(store.heartbeat_root)
        assert store.read_heartbeats(plan.digest) == {}
        # Health still classifies from artifacts alone.
        assert campaign_health(plan, store).complete

    def test_heartbeats_never_touch_artifacts(self, plan, store, tmp_path):
        """Artifact bytes are identical with or without the heartbeats."""
        run_campaign(plan, store)
        silent = ShardStore(tmp_path / "silent")
        run_campaign(plan, silent)
        shutil.rmtree(silent.heartbeat_root)
        for shard in plan.shards:
            with_beats = store.shard_path(shard.digest).read_bytes()
            without = silent.shard_path(shard.digest).read_bytes()
            assert with_beats == without

    def test_fresh_running_heartbeat(self, plan, store):
        shard = plan.shards[0]
        store.write_heartbeat(plan.digest, shard.digest, "running", shard_index=0)
        health = campaign_health(plan, store)
        assert health.shards[0].state == "running"

    def test_stale_running_heartbeat_is_stalled(self, plan, store):
        shard = plan.shards[0]
        now = time.time()
        store.write_heartbeat(
            plan.digest,
            shard.digest,
            "running",
            shard_index=0,
            updated_unix_s=now - 10 * MIN_STALL_SECONDS,
        )
        health = campaign_health(plan, store, now_unix_s=now)
        assert health.shards[0].state == "stalled"

    def test_stall_threshold_scales_with_median(self, plan, store):
        run_campaign(plan, store)
        health = campaign_health(plan, store, stall_factor=1e6)
        assert health.stall_threshold_s >= MIN_STALL_SECONDS

    def test_failed_heartbeat_classifies_failed(self, plan, store):
        shard = plan.shards[0]
        store.write_heartbeat(
            plan.digest, shard.digest, "failed", shard_index=0, error="boom"
        )
        health = campaign_health(plan, store)
        assert health.shards[0].state == "failed"
        assert health.shards[0].error == "boom"

    def test_done_heartbeat_without_artifact_is_pending(self, plan, store):
        shard = plan.shards[0]
        store.write_heartbeat(
            plan.digest, shard.digest, "done", shard_index=0, duration_s=0.1
        )
        health = campaign_health(plan, store)
        assert health.shards[0].state == "pending"

    def test_artifact_truth_beats_heartbeat(self, plan, store):
        run_campaign(plan, store)
        shard = plan.shards[0]
        now = time.time()
        store.write_heartbeat(
            plan.digest,
            shard.digest,
            "running",
            shard_index=0,
            updated_unix_s=now - 10 * MIN_STALL_SECONDS,
        )
        health = campaign_health(plan, store, now_unix_s=now)
        assert health.shards[0].state == "done"

    def test_payload_is_json_shaped(self, plan, store):
        import json

        run_campaign(plan, store)
        payload = campaign_health(plan, store).to_payload()
        json.dumps(payload)  # must serialize as-is
        assert payload["complete"] is True
        assert payload["counts"]["done"] == len(plan.shards)
        assert len(payload["shards"]) == len(plan.shards)


class TestKilledAndResumed:
    def test_crashed_campaign_resumes_and_heartbeats_settle(self, plan, store):
        """A campaign that dies mid-run must leave classifiable heartbeats
        and settle to all-done (with bit-identical results) on resume."""
        injector = FaultInjector(crash_shards={1: 10})
        with pytest.raises(ShardExecutionError):
            run_campaign(plan, store, retries=0, fault_injector=injector)
        beats = store.read_heartbeats(plan.digest)
        assert beats[plan.shards[0].digest]["status"] == "done"
        assert beats[plan.shards[1].digest]["status"] == "failed"
        health = campaign_health(plan, store)
        states = [shard.state for shard in health.shards]
        assert states[0] == "done"
        assert states[1] == "failed"
        assert not health.complete

        # Resume without the fault: failed shard re-runs, heartbeats heal.
        run_campaign(plan, store)
        health = campaign_health(plan, store)
        assert health.complete
        beats = store.read_heartbeats(plan.digest)
        assert all(b["status"] == "done" for b in beats.values())
        sweep = assemble_effectiveness_sweep(plan, store)
        assert set(sweep.losses) == {spec.name for spec in SPECS}

    def test_stale_heartbeat_from_killed_process_goes_stalled_then_done(
        self, plan, store
    ):
        # Simulate the record a SIGKILLed worker leaves behind.
        shard = plan.shards[0]
        now = time.time()
        store.write_heartbeat(
            plan.digest,
            shard.digest,
            "running",
            shard_index=0,
            updated_unix_s=now - 100 * MIN_STALL_SECONDS,
        )
        assert campaign_health(plan, store, now_unix_s=now).shards[0].state == "stalled"
        run_campaign(plan, store)
        assert campaign_health(plan, store).shards[0].state == "done"


class TestRenderDashboard:
    def test_render_complete(self, plan, store):
        run_campaign(plan, store)
        text = render_campaign_health(campaign_health(plan, store))
        assert f"campaign {plan.digest[:12]}" in text
        assert "campaign complete" in text
        assert f"trials: {plan.total_trials}/{plan.total_trials}" in text

    def test_render_attention_table(self, plan, store):
        now = time.time()
        store.write_heartbeat(
            plan.digest,
            plan.shards[0].digest,
            "running",
            shard_index=0,
            updated_unix_s=now - 10 * MIN_STALL_SECONDS,
        )
        text = render_campaign_health(campaign_health(plan, store, now_unix_s=now))
        assert "stalled" in text
        assert "beat age" in text
        assert "campaign complete" not in text


class TestLeaseAwareHealth:
    def _claim(self, store, plan, shard, owner="w0", age_s=0.0, ttl_s=30.0,
               host=None, pid=None):
        import os
        import socket

        from repro.campaign.lease import LeaseRecord
        from repro.utils.serialization import dump

        now = time.time()
        record = LeaseRecord(
            plan=plan.digest, shard=shard.digest, owner=owner,
            token=f"t:{owner}", pid=pid if pid is not None else os.getpid(),
            host=host if host is not None else socket.gethostname(),
            acquired_unix_s=now - age_s, renewed_unix_s=now - age_s, ttl_s=ttl_s,
        )
        path = store.claim_path(plan.digest, shard.digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        dump(record.to_payload(), path)
        return record

    def test_live_lease_running_shard_stays_running(self, plan, store):
        shard = plan.shards[0]
        store.write_heartbeat(
            plan.digest, shard.digest, "running", shard_index=0, worker="w0"
        )
        self._claim(store, plan, shard, owner="w0")
        health = campaign_health(plan, store)
        view = health.shards[0]
        assert view.state == "running"
        assert view.worker == "w0"
        assert view.lease_owner == "w0"
        assert view.lease_expired is False
        assert view.lease_age_s is not None and view.lease_age_s < 5.0

    def test_expired_lease_flags_stalled_immediately(self, plan, store):
        """A SIGKILLed worker's shard stalls without waiting out the

        heartbeat threshold: the fresh heartbeat says running, the dead
        lease says reassignable."""
        shard = plan.shards[0]
        store.write_heartbeat(
            plan.digest, shard.digest, "running", shard_index=0, worker="w0"
        )
        self._claim(
            store, plan, shard, owner="w0", age_s=500.0, ttl_s=30.0,
            host="not-this-host", pid=1,
        )
        health = campaign_health(plan, store)
        view = health.shards[0]
        assert view.state == "stalled"
        assert view.lease_expired is True

    def test_live_claim_without_heartbeat_is_running(self, plan, store):
        """An executing shard writes no record: its claim shows it."""
        shard = plan.shards[0]
        self._claim(store, plan, shard, owner="w2", age_s=2.0, host="node-c")
        view = campaign_health(plan, store).shards[0]
        assert view.state == "running"
        assert view.worker == "w2"
        assert view.host == "node-c"
        assert view.lease_expired is False
        assert 2.0 <= view.age_s < 5.0
        assert view.age_s == pytest.approx(view.lease_age_s, abs=1e-6)

    def test_expired_claim_without_heartbeat_is_stalled(self, plan, store):
        shard = plan.shards[0]
        self._claim(
            store, plan, shard, owner="w9", age_s=500.0, ttl_s=30.0,
            host="not-this-host", pid=1,
        )
        view = campaign_health(plan, store).shards[0]
        assert view.state == "stalled"
        assert view.lease_expired is True
        assert view.age_s >= 500.0

    def test_dead_pid_claim_without_heartbeat_is_stalled(self, plan, store):
        import subprocess
        import sys

        child = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                               capture_output=True, text=True, check=True)
        shard = plan.shards[0]
        self._claim(store, plan, shard, owner="w9", pid=int(child.stdout))
        view = campaign_health(plan, store).shards[0]
        assert view.state == "stalled"
        assert view.lease_expired is True

    def test_claim_newer_than_last_record_is_running(self, plan, store):
        """A shard failed earlier and claimed again is running again."""
        shard = plan.shards[0]
        store.write_heartbeat(
            plan.digest, shard.digest, "failed", shard_index=0, worker="w0",
            error="boom", updated_unix_s=time.time() - 10.0,
        )
        self._claim(store, plan, shard, owner="w1")
        view = campaign_health(plan, store).shards[0]
        assert view.state == "running"
        assert view.worker == "w1"
        assert view.error is None

    def test_worker_falls_back_to_lease_owner(self, plan, store):
        shard = plan.shards[0]
        store.write_heartbeat(plan.digest, shard.digest, "running", shard_index=0)
        self._claim(store, plan, shard, owner="w3")
        view = campaign_health(plan, store).shards[0]
        assert view.worker == "w3"

    def test_payload_carries_lease_fields(self, plan, store):
        import json

        shard = plan.shards[0]
        store.write_heartbeat(
            plan.digest, shard.digest, "running", shard_index=0, worker="w0"
        )
        self._claim(store, plan, shard, owner="w0")
        payload = campaign_health(plan, store).to_payload()
        json.dumps(payload)  # JSON-shaped end to end
        entry = payload["shards"][0]
        assert entry["worker"] == "w0"
        assert entry["lease_owner"] == "w0"
        assert entry["lease_expired"] is False
        assert entry["lease_age_s"] is not None

    def test_render_shows_worker_and_lease_columns(self, plan, store):
        running, dead = plan.shards[0], plan.shards[1]
        store.write_heartbeat(
            plan.digest, running.digest, "running", shard_index=0, worker="w0"
        )
        self._claim(store, plan, running, owner="w0")
        store.write_heartbeat(
            plan.digest, dead.digest, "running", shard_index=1, worker="w9"
        )
        self._claim(
            store, plan, dead, owner="w9", age_s=500.0, ttl_s=30.0,
            host="not-this-host", pid=1,
        )
        rendered = render_campaign_health(campaign_health(plan, store))
        assert "worker" in rendered and "lease" in rendered
        assert "w0" in rendered and "w9" in rendered
        assert "expired" in rendered


class TestHostRollup:
    def test_hosts_grouped_from_heartbeats(self, plan, store):
        store.write_heartbeat(
            plan.digest, plan.shards[0].digest, "running",
            shard_index=0, worker="w0", host="node-a",
        )
        store.write_heartbeat(
            plan.digest, plan.shards[1].digest, "running",
            shard_index=1, worker="w1", host="node-a",
        )
        store.write_heartbeat(
            plan.digest, plan.shards[2].digest, "running",
            shard_index=2, worker="w2", host="node-b",
        )
        hosts = {h.host: h for h in campaign_health(plan, store).hosts()}
        assert set(hosts) == {"node-a", "node-b"}
        assert hosts["node-a"].active == 2
        assert hosts["node-a"].workers == ("w0", "w1")
        assert hosts["node-b"].active == 1
        assert hosts["node-a"].last_beat_age_s is not None

    def test_host_falls_back_to_lease(self, plan, store):
        shard = plan.shards[0]
        store.write_heartbeat(plan.digest, shard.digest, "running", shard_index=0)
        helper = TestLeaseAwareHealth()
        helper._claim(store, plan, shard, owner="w7", host="lease-host")
        health = campaign_health(plan, store)
        assert health.shards[0].host == "lease-host"
        hosts = health.hosts()
        assert [h.host for h in hosts] == ["lease-host"]

    def test_hostless_shards_left_out(self, plan, store):
        store.write_heartbeat(
            plan.digest, plan.shards[0].digest, "running", shard_index=0
        )
        assert campaign_health(plan, store).hosts() == ()

    def test_scheduler_stamps_host(self, plan, store):
        import socket

        run_campaign(plan, store)
        hosts = campaign_health(plan, store).hosts()
        assert [h.host for h in hosts] == [socket.gethostname()]
        assert hosts[0].done == len(plan.shards)
        assert hosts[0].done_trials == plan.total_trials

    def test_payload_and_render_carry_hosts(self, plan, store):
        import json

        store.write_heartbeat(
            plan.digest, plan.shards[0].digest, "running",
            shard_index=0, worker="w0", host="node-a",
        )
        health = campaign_health(plan, store)
        payload = health.to_payload()
        json.dumps(payload)
        assert payload["hosts"][0]["host"] == "node-a"
        assert payload["shards"][0]["host"] == "node-a"
        rendered = render_campaign_health(health)
        assert "host" in rendered and "node-a" in rendered

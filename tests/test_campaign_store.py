"""Tests for the content-addressed shard store."""

from __future__ import annotations

import time

import pytest

from repro.campaign.plan import ShardSpec, plan_effectiveness_sweep
from repro.campaign.store import ShardStore
from repro.sim.parallel import SchemeSpec
from repro.utils.serialization import dump, load
from repro.version import __version__


@pytest.fixture
def specs():
    return (SchemeSpec.of("Random"),)


@pytest.fixture
def shard(small_config, specs) -> ShardSpec:
    return ShardSpec(
        config=small_config,
        schemes=specs,
        search_rate=0.2,
        base_seed=7,
        trial_start=0,
        trial_count=3,
    )


@pytest.fixture
def store(tmp_path) -> ShardStore:
    return ShardStore(tmp_path / "store")


class TestShardArtifacts:
    def test_put_get_roundtrip(self, store, shard):
        losses = {"Random": [1.0, 2.5, 0.0]}
        path = store.put(shard, losses)
        assert path.exists()
        assert store.get(shard) == losses
        assert store.has(shard)
        assert store.classify(shard) == "done"

    def test_missing_is_pending(self, store, shard):
        assert store.get(shard) is None
        assert not store.has(shard)
        assert store.classify(shard) == "pending"

    def test_put_rejects_wrong_shape(self, store, shard):
        with pytest.raises(ValueError):
            store.put(shard, {"Random": [1.0]})
        with pytest.raises(ValueError):
            store.put(shard, {"Other": [1.0, 2.0, 3.0]})

    def test_artifact_carries_provenance(self, store, shard):
        store.put(shard, {"Random": [1.0, 2.5, 0.0]})
        payload = load(store.shard_path(shard.digest))
        assert payload["kind"] == "campaign-shard-v1"
        assert payload["digest"] == shard.digest
        provenance = payload["provenance"]
        assert provenance["code_version"] == __version__
        assert provenance["base_seed"] == 7
        assert provenance["config"]["snr_db"] == shard.config.snr_db
        assert payload["spec"]["trial_count"] == 3

    def test_old_artifact_with_backend_provenance_loads_and_resumes(
        self, store, small_config, specs
    ):
        """New artifacts no longer record an array backend, but artifacts
        written by older versions (which did) still load, and a resume
        counts them as cached instead of re-running them."""
        from repro.campaign import assemble_effectiveness_sweep, run_campaign

        plan = plan_effectiveness_sweep(
            small_config, specs, [0.2], 2, base_seed=7, shard_trials=1
        )
        run_campaign(plan, store, heartbeats=False)
        fresh = assemble_effectiveness_sweep(plan, store)
        for shard in plan.shards:
            path = store.shard_path(shard.digest)
            payload = load(path)
            assert "backend" not in payload["provenance"]
            payload["provenance"]["backend"] = "numpy"
            dump(payload, path)
        old_bytes = {
            shard.digest: store.shard_path(shard.digest).read_bytes()
            for shard in plan.shards
        }
        assert all(store.classify(shard) == "done" for shard in plan.shards)
        report = run_campaign(plan, store, heartbeats=False)
        assert report.executed == 0
        assert report.skipped == len(plan.shards)
        for shard in plan.shards:
            assert store.shard_path(shard.digest).read_bytes() == old_bytes[shard.digest]
        assert assemble_effectiveness_sweep(plan, store).losses == fresh.losses

    def test_artifact_bytes_deterministic(self, store, shard):
        losses = {"Random": [1.0, 2.5, 0.0]}
        path = store.put(shard, losses)
        first = path.read_bytes()
        store.put(shard, losses)
        assert path.read_bytes() == first

    def test_corrupt_artifact_detected(self, store, shard):
        path = store.put(shard, {"Random": [1.0, 2.5, 0.0]})
        path.write_text(path.read_text()[:20], encoding="utf-8")
        assert store.get(shard) is None
        assert store.classify(shard) == "failed"

    def test_wrong_shape_artifact_detected(self, store, shard, specs, small_config):
        # An artifact for a *different* trial count under the same path
        # (e.g. a hand-edited file) must not be accepted.
        other = ShardSpec(small_config, specs, 0.2, 7, 0, 2)
        store.put(other, {"Random": [1.0, 2.0]})
        payload_path = store.shard_path(shard.digest)
        payload_path.write_bytes(store.shard_path(other.digest).read_bytes())
        assert store.get(shard) is None


class TestManifests:
    def test_save_load_roundtrip(self, store, small_config, specs):
        plan = plan_effectiveness_sweep(
            small_config, specs, (0.1, 0.2), 4, base_seed=3, shard_trials=2
        )
        store.save_manifest(plan)
        manifests = store.load_manifests()
        assert manifests == {plan.digest: plan}

    def test_invalid_manifest_skipped(self, store):
        (store.manifest_dir / "junk.json").write_text("{", encoding="utf-8")
        assert store.load_manifests() == {}


class TestGc:
    def test_gc_removes_orphans_and_corrupt(self, store, small_config, specs):
        plan = plan_effectiveness_sweep(
            small_config, specs, (0.1,), 4, base_seed=3, shard_trials=2
        )
        store.save_manifest(plan)
        kept, corrupted = plan.shards
        store.put(kept, {"Random": [1.0, 2.0]})
        corrupt_path = store.put(corrupted, {"Random": [3.0, 4.0]})
        corrupt_path.write_text("not json", encoding="utf-8")
        orphan = ShardSpec(small_config, specs, 0.9, 99, 0, 1)
        orphan_path = store.put(orphan, {"Random": [5.0]})

        would_remove = store.gc(dry_run=True)
        assert corrupt_path.exists() and orphan_path.exists()
        assert sorted(would_remove) == sorted([corrupt_path, orphan_path])

        removed = store.gc()
        assert sorted(removed) == sorted([corrupt_path, orphan_path])
        assert store.has(kept)
        assert not corrupt_path.exists()
        assert not orphan_path.exists()

    def test_gc_explicit_keep(self, store, small_config, specs):
        shard = ShardSpec(small_config, specs, 0.2, 7, 0, 1)
        path = store.put(shard, {"Random": [1.0]})
        assert store.gc(keep=[shard.digest]) == []
        assert path.exists()
        assert store.gc(keep=[]) == [path]
        assert not path.exists()


class TestGcLivenessTrees:
    def _plan(self, store, small_config, specs):
        plan = plan_effectiveness_sweep(
            small_config, specs, (0.1,), 4, base_seed=3, shard_trials=2
        )
        store.save_manifest(plan)
        return plan

    def test_gc_prunes_orphaned_heartbeats(self, store, small_config, specs):
        plan = self._plan(store, small_config, specs)
        shard = plan.shards[0]
        store.write_heartbeat(plan.digest, shard.digest, "running", shard_index=0)
        store.write_heartbeat(plan.digest, "not-a-shard", "running", shard_index=9)
        store.write_heartbeat("forgotten-plan", "whatever", "done", shard_index=0)

        removed = store.gc()
        assert store.heartbeat_path(plan.digest, shard.digest).exists()
        assert not store.heartbeat_path(plan.digest, "not-a-shard").exists()
        assert not store.heartbeat_dir("forgotten-plan").exists()
        assert len(removed) == 2

    def test_gc_prunes_orphaned_torn_and_expired_claims(
        self, store, small_config, specs
    ):
        from repro.campaign.lease import LeaseManager, LeaseRecord

        plan = self._plan(store, small_config, specs)
        live_shard, stale_shard = plan.shards

        # Live lease: held by this very process, freshly renewed.
        lease = LeaseManager(store, plan.digest, owner="alive")
        assert lease.acquire(live_shard.digest)

        # Expired lease: ttl long gone on a foreign host.
        now = time.time()
        expired = LeaseRecord(
            plan=plan.digest, shard=stale_shard.digest, owner="ghost",
            token="otherhost:1:x", pid=1, host="not-this-host",
            acquired_unix_s=now - 500.0, renewed_unix_s=now - 400.0, ttl_s=30.0,
        )
        expired_path = store.claim_path(plan.digest, stale_shard.digest)
        dump(expired.to_payload(), expired_path)

        # Orphans and torn writes.
        orphan_path = store.claim_path(plan.digest, "not-a-shard")
        dump(expired.to_payload(), orphan_path)
        foreign_dir = store.claim_dir("forgotten-plan")
        foreign_dir.mkdir(parents=True)
        torn_path = foreign_dir / "torn.json"
        torn_path.write_text('{"kind": "campaign-lea', encoding="utf-8")

        would_remove = store.gc(dry_run=True)
        assert expired_path.exists() and orphan_path.exists() and torn_path.exists()
        assert sorted(would_remove) == sorted(
            [expired_path, orphan_path, torn_path]
        )

        removed = store.gc()
        assert sorted(removed) == sorted([expired_path, orphan_path, torn_path])
        assert lease.still_owns(live_shard.digest)  # live lease untouched
        assert not foreign_dir.exists()  # emptied orphan dir pruned

    def test_gc_expiry_clock_is_injectable(self, store, small_config, specs):
        from repro.campaign.lease import LeaseManager

        plan = self._plan(store, small_config, specs)
        lease = LeaseManager(store, plan.digest, owner="w0", ttl_s=30.0)
        assert lease.acquire(plan.shards[0].digest)
        # From one hour in the future, this live lease looks expired.
        future = time.time() + 3600.0
        removed = store.gc(now_unix_s=future)
        assert [store.claim_path(plan.digest, plan.shards[0].digest)] == removed

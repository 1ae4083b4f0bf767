"""Tests for atomic shard leases: acquire/renew/release, expiry, jitter."""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro.campaign.lease import (
    DEFAULT_LEASE_TTL_S,
    LeaseManager,
    LeaseRecord,
    backoff_delay,
    lease_expired,
)
from repro.campaign.store import ShardStore
from repro.utils.serialization import dump, load

PLAN = "plan-digest-0000"
SHARD = "shard-digest-aaaa"


@pytest.fixture
def store(tmp_path) -> ShardStore:
    return ShardStore(tmp_path / "store")


def _manager(store, **kwargs) -> LeaseManager:
    return LeaseManager(store, PLAN, **kwargs)


def _dead_pid() -> int:
    """The pid of a process that has already exited and been reaped."""
    process = multiprocessing.get_context("spawn").Process(target=_noop)
    process.start()
    pid = process.pid
    process.join()
    assert pid is not None
    return pid


def _noop() -> None:
    return None


def _expired_record(owner: str = "ghost", **overrides) -> LeaseRecord:
    now = time.time()
    fields = dict(
        plan=PLAN,
        shard=SHARD,
        owner=owner,
        token=f"otherhost:1:{owner}",
        pid=1,  # pid 1 is alive, so only the TTL can expire this
        host="not-this-host",
        acquired_unix_s=now - 500.0,
        renewed_unix_s=now - 400.0,
        ttl_s=30.0,
    )
    fields.update(overrides)
    return LeaseRecord(**fields)


class TestLeaseLifecycle:
    def test_acquire_creates_claim(self, store):
        manager = _manager(store, owner="w0")
        assert manager.acquire(SHARD)
        record = manager.peek(SHARD)
        assert record is not None
        assert record.owner == "w0"
        assert record.token == manager.token
        assert record.plan == PLAN and record.shard == SHARD
        assert manager.still_owns(SHARD)
        assert SHARD in manager.held()

    def test_reacquire_own_lease_is_renewal(self, store):
        manager = _manager(store)
        assert manager.acquire(SHARD)
        assert manager.acquire(SHARD)  # idempotent for the holder
        assert manager.takeovers == 0

    def test_live_foreign_lease_blocks_acquire(self, store):
        first, second = _manager(store, owner="a"), _manager(store, owner="b")
        assert first.acquire(SHARD)
        assert not second.acquire(SHARD)
        assert not second.still_owns(SHARD)
        assert first.still_owns(SHARD)

    def test_release_unlinks_claim(self, store):
        manager = _manager(store)
        manager.acquire(SHARD)
        manager.release(SHARD)
        assert manager.peek(SHARD) is None
        assert not manager.path(SHARD).exists()
        assert SHARD not in manager.held()

    def test_release_never_deletes_a_foreign_claim(self, store):
        loser, winner = _manager(store, owner="loser"), _manager(store, owner="winner")
        loser.acquire(SHARD)
        # The winner takes over behind the loser's back.
        dump(winner._record(SHARD, time.time(), time.time()).to_payload(), loser.path(SHARD))
        loser.release(SHARD)
        record = loser.peek(SHARD)
        assert record is not None and record.owner == "winner"

    def test_renew_bumps_renewed_timestamp(self, store):
        manager = _manager(store)
        manager.acquire(SHARD)
        before = manager.peek(SHARD)
        time.sleep(0.01)
        assert manager.renew(SHARD)
        after = manager.peek(SHARD)
        assert after.renewed_unix_s > before.renewed_unix_s
        assert after.acquired_unix_s == before.acquired_unix_s

    def test_renew_after_loss_reports_false(self, store):
        manager = _manager(store)
        manager.acquire(SHARD)
        dump(_expired_record("thief").to_payload(), manager.path(SHARD))
        assert not manager.renew(SHARD)
        assert SHARD not in manager.held()

    def test_renew_unheld_is_false(self, store):
        assert not _manager(store).renew(SHARD)

    def test_release_all(self, store):
        manager = _manager(store)
        for digest in ("s1", "s2", "s3"):
            assert manager.acquire(digest)
        manager.release_all()
        assert manager.held() == {}
        assert all(manager.peek(d) is None for d in ("s1", "s2", "s3"))


class TestExpiryAndTakeover:
    def test_fresh_lease_is_not_expired(self, store):
        manager = _manager(store)
        manager.acquire(SHARD)
        assert not lease_expired(manager.peek(SHARD))

    def test_ttl_expiry(self):
        record = _expired_record()
        assert lease_expired(record)
        # Injectable clock: one second after renewal it is still live.
        assert not lease_expired(record, record.renewed_unix_s + 1.0)

    def test_dead_pid_on_this_host_expires_immediately(self, store):
        import socket

        record = _expired_record(
            host=socket.gethostname(),
            pid=_dead_pid(),
            renewed_unix_s=time.time(),  # freshly renewed, but the pid died
        )
        assert lease_expired(record)

    def test_takeover_of_expired_lease(self, store):
        manager = _manager(store, owner="survivor")
        manager.path(SHARD).parent.mkdir(parents=True, exist_ok=True)
        dump(_expired_record().to_payload(), manager.path(SHARD))
        assert manager.acquire(SHARD)
        assert manager.takeovers == 1
        assert manager.still_owns(SHARD)

    def test_torn_claim_is_healed_by_takeover(self, store):
        manager = _manager(store)
        path = manager.path(SHARD)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"kind": "campaign-lea', encoding="utf-8")  # torn write
        assert manager.peek(SHARD) is None
        assert manager.acquire(SHARD)
        assert manager.takeovers == 1
        assert manager.still_owns(SHARD)

    def test_claim_payload_roundtrip(self, store):
        manager = _manager(store)
        manager.acquire(SHARD)
        record = LeaseRecord.from_payload(load(manager.path(SHARD)))
        assert record == manager.peek(SHARD)
        assert LeaseRecord.from_payload({"kind": "something-else"}) is None
        assert LeaseRecord.from_payload(None) is None

    def test_ttl_must_be_positive(self, store):
        with pytest.raises(ValueError):
            _manager(store, ttl_s=0.0)

    def test_default_ttl_applies(self, store):
        manager = _manager(store)
        manager.acquire(SHARD)
        assert manager.peek(SHARD).ttl_s == DEFAULT_LEASE_TTL_S


class TestPeekFirstAcquire:
    """A lost claim costs one read; takeovers still go through."""

    @pytest.fixture
    def fsyncs(self, monkeypatch):
        import repro.campaign.lease as lease_module

        calls = []
        real_fsync = lease_module.os.fsync

        def counting_fsync(fd):
            calls.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(lease_module.os, "fsync", counting_fsync)
        return calls

    def test_live_foreign_claim_loses_without_writing(self, store, fsyncs):
        holder, rival = _manager(store, owner="holder"), _manager(store, owner="rival")
        assert holder.acquire(SHARD)
        claim_bytes = holder.path(SHARD).read_bytes()
        fsyncs.clear()
        assert not rival.acquire(SHARD)
        assert fsyncs == []
        assert SHARD not in rival.held()
        assert holder.path(SHARD).read_bytes() == claim_bytes
        claim_dir = store.claim_dir(PLAN)
        assert [p.name for p in claim_dir.iterdir()] == [holder.path(SHARD).name]

    def test_free_claim_is_still_fsynced(self, store, fsyncs):
        assert _manager(store).acquire(SHARD)
        assert len(fsyncs) >= 1

    def test_dead_pid_claim_is_taken_over(self, store):
        import socket

        manager = _manager(store, owner="survivor")
        manager.path(SHARD).parent.mkdir(parents=True, exist_ok=True)
        record = _expired_record(
            host=socket.gethostname(), pid=_dead_pid(), renewed_unix_s=time.time()
        )
        dump(record.to_payload(), manager.path(SHARD))
        assert manager.acquire(SHARD)
        assert manager.takeovers == 1
        assert manager.still_owns(SHARD)


class TestRaces:
    ROUNDS = 60

    def test_exactly_one_winner_when_many_race(self, store):
        """A racer must never see a half-written claim and take it over;
        one race rarely hits that window, so run many."""
        managers = [_manager(store, owner=f"w{i}") for i in range(8)]
        barrier = threading.Barrier(len(managers))
        for round_index in range(self.ROUNDS):
            shard = f"{SHARD}-{round_index}"
            results = [False] * len(managers)

            def contend(slot: int) -> None:
                barrier.wait()
                results[slot] = managers[slot].acquire(shard)

            threads = [
                threading.Thread(target=contend, args=(slot,))
                for slot in range(len(managers))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert sum(results) == 1, f"round {round_index}: {results}"
            winner = results.index(True)
            assert managers[winner].still_owns(shard)
        # Temp files never outlive an acquire.
        claim_dir = store.claim_dir(PLAN)
        assert sorted(p.suffix for p in claim_dir.iterdir()) == [".json"] * self.ROUNDS


class TestBackoffJitter:
    def test_deterministic_per_shard_and_attempt(self):
        assert backoff_delay(0.1, 1, "abc") == backoff_delay(0.1, 1, "abc")
        assert backoff_delay(0.1, 2, "abc") == backoff_delay(0.1, 2, "abc")

    def test_different_shards_get_different_delays(self):
        delays = {backoff_delay(0.1, 1, f"shard-{i}") for i in range(16)}
        assert len(delays) == 16  # 64-bit jitter: collisions imply a bug

    def test_bounds_and_exponential_growth(self):
        for attempt in (1, 2, 3, 4):
            base = 0.1 * 2 ** (attempt - 1)
            delay = backoff_delay(0.1, attempt, "digest")
            assert 0.5 * base <= delay < 1.5 * base

    def test_zero_base_disables_backoff(self):
        assert backoff_delay(0.0, 3, "digest") == 0.0
        assert backoff_delay(-1.0, 3, "digest") == 0.0

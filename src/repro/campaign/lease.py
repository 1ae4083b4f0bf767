"""Atomic shard leases: filesystem coordination for multi-worker campaigns.

A campaign's shards are deterministic — trial ``k`` always draws from
``trial_generator(base_seed, k)`` — so two workers executing the same
shard write byte-identical artifacts and the atomic ``os.replace`` in
:func:`repro.utils.serialization.dump` makes the duplicate write
harmless. Leases therefore exist for *efficiency*, not correctness: they
keep N independent workers from burning CPU on the same shard, and they
make a crashed worker's in-flight shards visibly reassignable.

Claim files live in their own subtree of the shard store::

    claims/<plan>/<shard>.json      one worker's lease on one shard

The discipline mirrors shard artifacts:

* **acquire** first reads the claim: a live foreign claim loses at the
  cost of that read. Otherwise it writes the whole claim to a temp file
  and hard-links it into place — ``link`` fails if the claim exists, so
  the kernel guarantees exactly one winner when several workers race
  for a free shard, and no racer ever sees a half-written claim; the
  losers observe the claim and move on;
* **renew** rewrites the claim through the same atomic
  tmp-file + ``os.replace`` path as artifacts, bumping
  ``renewed_unix_s`` so watchers can tell a live lease from a dead one;
* **release** unlinks the claim (after re-checking the token, so a
  worker never deletes a lease it lost);
* **expiry** is TTL-based — a claim whose ``renewed_unix_s`` is more
  than ``ttl_s`` old is up for grabs — with a fast path for local
  crashes: a claim whose recorded pid is dead *on this host* is expired
  immediately, so a SIGKILLed worker's shards are reassigned on the
  next scan instead of after a TTL;
* **takeover** of an expired (or torn/unreadable) claim is one atomic
  ``os.replace``. Two workers may race a takeover; the last writer wins
  the claim and the loser's publish is caught by the zombie guard
  (:func:`repro.campaign.worker.publish_shard`). Either way the bytes
  that land in the artifact tree are identical.

No claim ever feeds into shard *results*; like heartbeats, leases are
liveness metadata outside the deterministic artifact tree.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional

from repro.obs import get_logger
from repro.utils.serialization import dump, load
from repro.version import __version__

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaign.store import ShardStore

__all__ = [
    "LEASE_SCHEMA",
    "DEFAULT_LEASE_TTL_S",
    "LeaseRecord",
    "LeaseManager",
    "lease_expired",
    "backoff_delay",
    "local_hostname",
]

logger = get_logger("campaign.lease")

#: Lease record schema version (additive changes only within /1).
LEASE_SCHEMA = "repro.campaign.lease/1"

#: Default time a worker may go without renewing before its claim is up
#: for takeover. Generous relative to shard runtimes because the
#: dead-pid fast path reclaims local crashes immediately.
DEFAULT_LEASE_TTL_S = 30.0

_HOSTNAME = socket.gethostname()


def local_hostname() -> str:
    """This process's hostname (cached at import; stamps leases/heartbeats)."""
    return _HOSTNAME


@dataclass(frozen=True)
class LeaseRecord:
    """One worker's claim on one shard, as stored in ``claims/``."""

    plan: str
    shard: str
    owner: str
    token: str
    pid: int
    host: str
    acquired_unix_s: float
    renewed_unix_s: float
    ttl_s: float

    def to_payload(self) -> Dict[str, Any]:
        return {
            "kind": "campaign-lease-v1",
            "schema": LEASE_SCHEMA,
            "code_version": __version__,
            "plan": self.plan,
            "shard": self.shard,
            "owner": self.owner,
            "token": self.token,
            "pid": self.pid,
            "host": self.host,
            "acquired_unix_s": self.acquired_unix_s,
            "renewed_unix_s": self.renewed_unix_s,
            "ttl_s": self.ttl_s,
        }

    @classmethod
    def from_payload(cls, payload: Any) -> Optional["LeaseRecord"]:
        """Parse one claim payload; ``None`` when torn or mis-shaped."""
        if not isinstance(payload, Mapping) or payload.get("kind") != "campaign-lease-v1":
            return None
        try:
            return cls(
                plan=str(payload["plan"]),
                shard=str(payload["shard"]),
                owner=str(payload["owner"]),
                token=str(payload["token"]),
                pid=int(payload["pid"]),
                host=str(payload["host"]),
                acquired_unix_s=float(payload["acquired_unix_s"]),
                renewed_unix_s=float(payload["renewed_unix_s"]),
                ttl_s=float(payload["ttl_s"]),
            )
        except (KeyError, TypeError, ValueError):
            return None


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for a pid on this host."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user pid: alive
        return True
    except OSError:  # pragma: no cover - exotic platforms
        return True
    return True


def lease_expired(record: LeaseRecord, now_unix_s: Optional[float] = None) -> bool:
    """True when ``record`` no longer protects its shard.

    A lease expires when its TTL has elapsed since the last renewal, or
    immediately when it was taken on *this* host by a pid that no longer
    exists — the fast path that reassigns a SIGKILLed worker's shards
    without waiting out the TTL.
    """
    now = time.time() if now_unix_s is None else now_unix_s
    if now - record.renewed_unix_s >= record.ttl_s:
        return True
    if record.host == _HOSTNAME and not _pid_alive(record.pid):
        return True
    return False


def backoff_delay(base_s: float, attempt: int, digest: str) -> float:
    """Exponential retry backoff with deterministic per-shard jitter.

    The classic schedule ``base * 2**(attempt-1)`` makes simultaneous
    workers that hit the same transient failure retry in lockstep and
    thundering-herd the store. Jitter breaks the herd; seeding it from
    ``(digest, attempt)`` keeps the schedule a pure function of the
    shard — reproducible across runs, processes, and hosts — instead of
    a wall-clock or PRNG artifact. The delay lands in
    ``[0.5, 1.5) x base * 2**(attempt-1)``.
    """
    if base_s <= 0.0:
        return 0.0
    seed = hashlib.blake2b(
        f"{digest}:{attempt}".encode("utf-8"), digest_size=8
    ).digest()
    fraction = int.from_bytes(seed, "big") / 2.0**64  # uniform-ish in [0, 1)
    return base_s * (2 ** (max(1, attempt) - 1)) * (0.5 + fraction)


def _link_new_claim(payload: Mapping[str, Any], path: Path) -> None:
    """Publish a complete claim at ``path``; FileExistsError when taken.

    The payload is written and fsynced to a same-directory temp file
    first, then hard-linked to the claim path, so the claim never exists
    half-written: a racer can only ever read a whole claim, never an
    empty file it would mistake for a torn one and take over. The
    ``.tmp`` suffix keeps the temp file out of ``*.json`` claim scans.
    """
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.stem}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.link(tmp_name, str(path))
    finally:
        os.unlink(tmp_name)


class LeaseManager:
    """Acquire/renew/release shard leases for one worker on one plan.

    One manager per worker process; the random ``token`` distinguishes
    this worker's claims from a previous incarnation's (same pid reuse)
    and from a concurrent takeover, so ownership checks are exact.
    """

    def __init__(
        self,
        store: "ShardStore",
        plan_digest: str,
        owner: Optional[str] = None,
        ttl_s: float = DEFAULT_LEASE_TTL_S,
    ) -> None:
        if ttl_s <= 0.0:
            raise ValueError(f"lease ttl_s must be > 0, got {ttl_s}")
        self.store = store
        self.plan_digest = plan_digest
        self.owner = owner or f"pid-{os.getpid()}"
        self.ttl_s = float(ttl_s)
        self.token = f"{_HOSTNAME}:{os.getpid()}:{os.urandom(6).hex()}"
        self.takeovers = 0
        #: shard digest -> unix time of the last acquire/renew we made
        self._held: Dict[str, float] = {}

    # -- introspection -------------------------------------------------

    def path(self, shard_digest: str) -> Path:
        return self.store.claim_path(self.plan_digest, shard_digest)

    def held(self) -> Dict[str, float]:
        """Digest -> last local renewal time for every lease we hold."""
        return dict(self._held)

    def peek(self, shard_digest: str) -> Optional[LeaseRecord]:
        """The current on-disk claim, or ``None`` (absent/torn)."""
        try:
            payload = load(self.path(shard_digest))
        except (OSError, ValueError):
            return None
        return LeaseRecord.from_payload(payload)

    def still_owns(self, shard_digest: str) -> bool:
        """On-disk truth: does our token still hold this shard's claim?"""
        record = self.peek(shard_digest)
        return record is not None and record.token == self.token

    # -- lifecycle -----------------------------------------------------

    def _record(self, shard_digest: str, acquired: float, now: float) -> LeaseRecord:
        return LeaseRecord(
            plan=self.plan_digest,
            shard=shard_digest,
            owner=self.owner,
            token=self.token,
            pid=os.getpid(),
            host=_HOSTNAME,
            acquired_unix_s=acquired,
            renewed_unix_s=now,
            ttl_s=self.ttl_s,
        )

    def _live_foreign(self, current: Optional[LeaseRecord], now: float) -> bool:
        """True when ``current`` is someone else's unexpired claim."""
        return (
            current is not None
            and current.token != self.token
            and not lease_expired(current, now)
        )

    def acquire(self, shard_digest: str) -> bool:
        """Try to claim one shard; True when we hold the lease after this.

        The claim is read first, so losing to a live foreign claim costs
        one read — no temp file, fsync or link. Free shard: the fully
        written claim is hard-linked into place, which wins or loses
        atomically. Claim already ours: treated as a renewal. Expired or
        unreadable claim: atomic takeover (``os.replace``).
        """
        now = time.time()
        if self._live_foreign(self.peek(shard_digest), now):
            return False
        path = self.path(shard_digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        record = self._record(shard_digest, acquired=now, now=now)
        try:
            _link_new_claim(record.to_payload(), path)
        except FileExistsError:
            current = self.peek(shard_digest)
            if current is not None and current.token == self.token:
                self._held[shard_digest] = now
                return True
            if self._live_foreign(current, now):
                return False
            # Expired, torn, or vanished: take over in one atomic write.
            dump(record.to_payload(), path)
            self._held[shard_digest] = now
            self.takeovers += 1
            logger.info(
                "lease takeover: shard %s (was %s)",
                shard_digest[:12],
                current.owner if current is not None else "<unreadable>",
            )
            return True
        self._held[shard_digest] = now
        return True

    def renew(self, shard_digest: str) -> bool:
        """Push the lease's expiry out; False (and drop it) when lost."""
        if shard_digest not in self._held:
            return False
        current = self.peek(shard_digest)
        if current is None or current.token != self.token:
            self._held.pop(shard_digest, None)
            logger.warning(
                "lease lost before renewal: shard %s now %s",
                shard_digest[:12],
                current.owner if current is not None else "<gone>",
            )
            return False
        now = time.time()
        record = self._record(
            shard_digest, acquired=current.acquired_unix_s, now=now
        )
        dump(record.to_payload(), self.path(shard_digest))
        self._held[shard_digest] = now
        return True

    def release(self, shard_digest: str) -> None:
        """Drop one lease; never deletes a claim that is no longer ours."""
        self._held.pop(shard_digest, None)
        current = self.peek(shard_digest)
        if current is None or current.token != self.token:
            return
        try:
            self.path(shard_digest).unlink()
        except FileNotFoundError:  # pragma: no cover - racing release
            pass

    def release_all(self) -> None:
        """Release every lease we still hold (crash/abort cleanup)."""
        for digest in list(self._held):
            self.release(digest)

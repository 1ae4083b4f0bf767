"""Live campaign health: heartbeat classification, stall detection, ETA.

Workers append a heartbeat record when a shard finishes, retries or
fails (see :meth:`~repro.campaign.store.ShardStore.write_heartbeat`),
and a shard being executed is shown by its lease claim; this module
folds heartbeats, claims and artifact state into a single health view
that both ``repro campaign watch`` (refreshing TTY dashboard) and
``repro campaign status --json`` (CI consumption) render.

Per-shard states:

* ``done`` — a valid artifact exists;
* ``running`` — a live claim holds the shard and no record newer than
  the claim exists (age: since the claim's last renewal), or a
  ``running`` record says so; ``retrying`` — the last record says so.
  Either way no artifact has landed yet;
* ``stalled`` — lease-dead: the shard's claim exists but its lease has
  expired (TTL elapsed, or the owning pid died on this host), which
  flags a crashed worker's shards as soon as the claim lapses — **or**
  heartbeat-silent: a running/retrying record older than
  ``stall_factor`` x the median completed-shard duration (with a floor,
  so short campaigns do not flap);
* ``failed`` — the artifact is corrupt, or the heartbeat reports a
  permanent failure;
* ``pending`` — nothing has touched the shard yet.

A crashed-then-resumed campaign needs no special casing: the claim a
killed worker left behind classifies as ``stalled`` until the resumed
run takes it over (``running``) and publishes the artifact, at which
point the shard is simply ``done``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import AbstractSet, Any, Dict, List, Mapping, Optional, Tuple

from repro.campaign.lease import LeaseRecord, lease_expired
from repro.campaign.plan import CampaignPlan
from repro.campaign.store import ShardStore
from repro.obs.metrics import percentile

__all__ = [
    "ShardHealth",
    "HostHealth",
    "CampaignHealth",
    "campaign_health",
    "render_campaign_health",
    "DEFAULT_STALL_FACTOR",
    "MIN_STALL_SECONDS",
]

#: A shard is stalled when its heartbeat is older than this multiple of
#: the median completed-shard duration.
DEFAULT_STALL_FACTOR = 4.0

#: Floor for the stall threshold: with sub-second shards, scheduling
#: jitter alone would otherwise flag healthy shards.
MIN_STALL_SECONDS = 5.0


@dataclass(frozen=True)
class ShardHealth:
    """One shard's current state as seen through store + heartbeats."""

    index: int
    digest: str
    search_rate: float
    trial_start: int
    trial_count: int
    state: str  # done | running | retrying | stalled | failed | pending
    attempt: int = 0
    age_s: Optional[float] = None  # since the last heartbeat, else the claim renewal
    duration_s: Optional[float] = None  # completed shards only
    error: Optional[str] = None
    #: worker that produced the last heartbeat (lease owner as fallback)
    worker: Optional[str] = None
    #: machine that produced the last heartbeat (lease host as fallback)
    host: Optional[str] = None
    #: current lease claim, when one exists
    lease_owner: Optional[str] = None
    lease_age_s: Optional[float] = None  # seconds since the last renewal
    lease_expired: Optional[bool] = None

    def to_payload(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "digest": self.digest,
            "search_rate": self.search_rate,
            "trial_start": self.trial_start,
            "trial_count": self.trial_count,
            "state": self.state,
            "attempt": self.attempt,
            "age_s": self.age_s,
            "duration_s": self.duration_s,
            "error": self.error,
            "worker": self.worker,
            "host": self.host,
            "lease_owner": self.lease_owner,
            "lease_age_s": self.lease_age_s,
            "lease_expired": self.lease_expired,
        }


@dataclass(frozen=True)
class HostHealth:
    """One machine's slice of a campaign (heartbeat/lease provenance)."""

    host: str
    done: int
    active: int  # running + retrying
    stalled: int
    failed: int
    done_trials: int
    workers: Tuple[str, ...]
    #: freshest heartbeat age across the host's shards, when known
    last_beat_age_s: Optional[float]

    @property
    def shards(self) -> int:
        return self.done + self.active + self.stalled + self.failed

    def to_payload(self) -> Dict[str, Any]:
        return {
            "host": self.host,
            "shards": self.shards,
            "done": self.done,
            "active": self.active,
            "stalled": self.stalled,
            "failed": self.failed,
            "done_trials": self.done_trials,
            "workers": list(self.workers),
            "last_beat_age_s": self.last_beat_age_s,
        }


@dataclass(frozen=True)
class CampaignHealth:
    """The whole campaign's health: per-shard states plus the roll-up."""

    plan_digest: str
    shards: Tuple[ShardHealth, ...]
    stall_threshold_s: float
    median_shard_s: Optional[float]
    eta_s: Optional[float]

    def count(self, state: str) -> int:
        return sum(1 for shard in self.shards if shard.state == state)

    @property
    def counts(self) -> Dict[str, int]:
        states = ("done", "running", "retrying", "stalled", "failed", "pending")
        return {state: self.count(state) for state in states}

    @property
    def total(self) -> int:
        return len(self.shards)

    @property
    def done_trials(self) -> int:
        return sum(s.trial_count for s in self.shards if s.state == "done")

    @property
    def total_trials(self) -> int:
        return sum(s.trial_count for s in self.shards)

    @property
    def complete(self) -> bool:
        return all(shard.state == "done" for shard in self.shards)

    def hosts(self) -> Tuple[HostHealth, ...]:
        """Per-host roll-up of every shard with execution provenance.

        Shards that never reported a host (pending, or records written
        before the host stamp existed) are left out — the roll-up
        describes where work *ran*, not where it is queued.
        """
        grouped: Dict[str, List[ShardHealth]] = {}
        for shard in self.shards:
            if shard.host is not None:
                grouped.setdefault(shard.host, []).append(shard)
        hosts: List[HostHealth] = []
        for host in sorted(grouped):
            members = grouped[host]
            ages = [s.age_s for s in members if s.age_s is not None]
            workers = sorted({s.worker for s in members if s.worker is not None})
            hosts.append(
                HostHealth(
                    host=host,
                    done=sum(1 for s in members if s.state == "done"),
                    active=sum(
                        1 for s in members if s.state in ("running", "retrying")
                    ),
                    stalled=sum(1 for s in members if s.state == "stalled"),
                    failed=sum(1 for s in members if s.state == "failed"),
                    done_trials=sum(
                        s.trial_count for s in members if s.state == "done"
                    ),
                    workers=tuple(workers),
                    last_beat_age_s=min(ages) if ages else None,
                )
            )
        return tuple(hosts)

    def to_payload(self) -> Dict[str, Any]:
        """JSON-serializable view (``repro campaign status --json``)."""
        return {
            "plan": self.plan_digest,
            "complete": self.complete,
            "counts": self.counts,
            "total_shards": self.total,
            "done_trials": self.done_trials,
            "total_trials": self.total_trials,
            "median_shard_s": self.median_shard_s,
            "stall_threshold_s": self.stall_threshold_s,
            "eta_s": self.eta_s,
            "hosts": [host.to_payload() for host in self.hosts()],
            "shards": [shard.to_payload() for shard in self.shards],
        }


def _median_done_duration(heartbeats: Mapping[str, Mapping[str, Any]]) -> Optional[float]:
    durations = [
        float(record["duration_s"])
        for record in heartbeats.values()
        if record.get("status") == "done" and record.get("duration_s") is not None
    ]
    if not durations:
        return None
    return percentile(durations, 0.5)


def campaign_health(
    plan: CampaignPlan,
    store: ShardStore,
    now_unix_s: Optional[float] = None,
    stall_factor: float = DEFAULT_STALL_FACTOR,
    known_done: AbstractSet[str] = frozenset(),
) -> CampaignHealth:
    """Classify every shard of ``plan`` with heartbeat-aware states.

    ``now_unix_s`` is injectable for tests (defaults to wall clock).
    Artifact truth wins over heartbeat claims: a shard with a valid
    artifact is ``done`` no matter what its heartbeat says, and a corrupt
    artifact is ``failed`` even with a fresh heartbeat. Shards in
    ``known_done`` (digests a status pass just saw done) are ``done``
    without a read, as in
    :func:`~repro.campaign.scheduler.campaign_status`.
    """
    now = time.time() if now_unix_s is None else now_unix_s
    heartbeats = store.read_heartbeats(plan.digest)
    claims = {
        digest: record
        for digest, payload in store.read_claims(plan.digest).items()
        if (record := LeaseRecord.from_payload(payload)) is not None
    }
    median_s = _median_done_duration(heartbeats)
    stall_threshold_s = max(
        MIN_STALL_SECONDS, stall_factor * median_s if median_s else MIN_STALL_SECONDS
    )

    shards: List[ShardHealth] = []
    for index, shard in enumerate(plan.shards):
        digest = shard.digest
        verdict = "done" if digest in known_done else store.classify(shard)
        beat = heartbeats.get(digest)
        claim = claims.get(digest)
        if (
            beat is not None
            and claim is not None
            and float(beat["updated_unix_s"]) < claim.acquired_unix_s
        ):
            beat = None  # the claim is a newer attempt than the record
        claim_expired = lease_expired(claim, now) if claim is not None else None
        claim_age_s = (
            max(0.0, now - claim.renewed_unix_s) if claim is not None else None
        )
        attempt = int(beat.get("attempt", 0)) if beat else 0
        age_s = max(0.0, now - float(beat["updated_unix_s"])) if beat else claim_age_s
        duration_s = (
            float(beat["duration_s"])
            if beat and beat.get("duration_s") is not None
            else None
        )
        error = beat.get("error") if beat else None
        worker = beat.get("worker") if beat else None
        if not isinstance(worker, str):
            worker = claim.owner if claim is not None else None
        host = beat.get("host") if beat else None
        if not isinstance(host, str):
            host = claim.host if claim is not None else None

        if verdict == "done":
            state = "done"
        elif verdict == "failed":
            state = "failed"
        elif beat is None:
            # No record yet: a claim alone says a worker holds the shard.
            if claim is None:
                state = "pending"
            else:
                state = "stalled" if claim_expired else "running"
        else:
            status = beat.get("status", "")
            if status == "failed":
                state = "failed"
            elif status in ("running", "retrying"):
                # Heartbeat-silent OR lease-dead: an expired claim means
                # the owning worker stopped renewing (crash/SIGKILL), so
                # the shard is reassignable *now* — flag it without
                # waiting out the heartbeat threshold.
                stalled = (age_s is not None and age_s > stall_threshold_s) or (
                    claim_expired is True
                )
                state = "stalled" if stalled else status
            else:
                # A done record without its artifact (gc'd or lost): the
                # shard must re-run.
                state = "pending"
        shards.append(
            ShardHealth(
                index=index,
                digest=digest,
                search_rate=shard.search_rate,
                trial_start=shard.trial_start,
                trial_count=shard.trial_count,
                state=state,
                attempt=attempt,
                age_s=age_s,
                duration_s=duration_s,
                error=error if isinstance(error, str) else None,
                worker=worker,
                host=host,
                lease_owner=claim.owner if claim is not None else None,
                lease_age_s=claim_age_s,
                lease_expired=claim_expired,
            )
        )

    remaining = [s for s in shards if s.state not in ("done",)]
    eta_s = median_s * len(remaining) if median_s is not None and remaining else None
    return CampaignHealth(
        plan_digest=plan.digest,
        shards=tuple(shards),
        stall_threshold_s=stall_threshold_s,
        median_shard_s=median_s,
        eta_s=eta_s,
    )


def _format_age(age_s: Optional[float]) -> str:
    if age_s is None:
        return "-"
    if age_s >= 3600:
        return f"{age_s / 3600:.1f}h"
    if age_s >= 60:
        return f"{age_s / 60:.1f}m"
    return f"{age_s:.1f}s"


def render_campaign_health(health: CampaignHealth, title: str = "") -> str:
    """Render one campaign's health as a fixed-width TTY dashboard."""
    heading = title or f"campaign {health.plan_digest[:12]}"
    counts = health.counts
    lines = [
        heading,
        "=" * len(heading),
        (
            f"shards: {counts['done']} done / {counts['running']} running /"
            f" {counts['retrying']} retrying / {counts['stalled']} stalled /"
            f" {counts['failed']} failed / {counts['pending']} pending"
            f" (of {health.total})"
        ),
        f"trials: {health.done_trials}/{health.total_trials}",
    ]
    if health.median_shard_s is not None:
        lines.append(
            f"median shard {health.median_shard_s:.2f}s;"
            f" stall threshold {health.stall_threshold_s:.1f}s"
        )
    if health.eta_s is not None:
        lines.append(f"eta ~{_format_age(health.eta_s)} (serial, median-based)")
    hosts = health.hosts()
    if hosts:
        lines.append("")
        lines.append(
            f"{'host':>16s} {'done':>5s} {'active':>6s} {'stalled':>7s}"
            f" {'failed':>6s} {'trials':>7s} {'workers':>7s} {'beat':>7s}"
        )
        for host in hosts:
            lines.append(
                f"{host.host[:16]:>16s} {host.done:5d} {host.active:6d}"
                f" {host.stalled:7d} {host.failed:6d} {host.done_trials:7d}"
                f" {len(host.workers):7d} {_format_age(host.last_beat_age_s):>7s}"
            )
    attention = [
        shard
        for shard in health.shards
        if shard.state in ("running", "retrying", "stalled", "failed")
    ]
    if attention:
        lines.append("")
        lines.append(
            f"{'shard':>5s} {'rate':>6s} {'trials':>11s} {'state':>9s}"
            f" {'attempt':>7s} {'beat age':>9s} {'worker':>12s} {'lease':>9s}"
        )
        for shard in attention:
            trials = f"[{shard.trial_start},{shard.trial_start + shard.trial_count})"
            worker = (shard.worker or "-")[:12]
            if shard.lease_owner is None:
                lease = "-"
            elif shard.lease_expired:
                lease = "expired"
            else:
                lease = _format_age(shard.lease_age_s)
            lines.append(
                f"{shard.index:5d} {shard.search_rate:6.2f} {trials:>11s}"
                f" {shard.state:>9s} {shard.attempt:7d} {_format_age(shard.age_s):>9s}"
                f" {worker:>12s} {lease:>9s}"
            )
    if health.complete:
        lines.append("campaign complete")
    return "\n".join(lines) + "\n"

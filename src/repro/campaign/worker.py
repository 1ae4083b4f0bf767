"""Lease-based campaign worker: the coordinator-free execution loop.

:func:`run_worker` is one independent worker against one plan + store.
It scans the plan in order, skips shards with valid artifacts, claims
free shards through :class:`~repro.campaign.lease.LeaseManager`, executes
them in-process (optionally through the batched engine), publishes each
artifact through the zombie guard (:func:`publish_shard`), and releases
the lease. Shards held by a live foreign lease are left alone; the
worker re-scans until every shard is resolved, taking over leases whose
workers crashed. N workers pointed at the same store therefore partition
the plan dynamically with no coordinator process — the store *is* the
coordinator.

Determinism makes this safe: every shard artifact is a pure function of
its spec, so the worst a lease race can cost is duplicated CPU, never a
wrong byte. The same property powers the zombie guard: a worker that
lost its lease mid-shard may still write when no artifact exists yet
(the bytes are identical to what the new owner would write), and must
discard when one does (never clobber a completed artifact with a late
write — artifacts stay strictly write-once from the store's viewpoint).

This module also hosts the single-shard execution helpers the supervising
scheduler (:mod:`repro.campaign.scheduler`) shares, so in-process shard
execution, loss collapsing, and artifact publication have exactly one
implementation across the single-supervisor and distributed modes.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign.lease import (
    DEFAULT_LEASE_TTL_S,
    LeaseManager,
    backoff_delay,
    local_hostname,
)
from repro.campaign.plan import CampaignPlan, ShardSpec
from repro.campaign.store import ShardStore
from repro.exceptions import CampaignAborted, ConfigurationError
from repro.obs import ProgressCallback, ProgressReporter, get_logger, get_recorder
from repro.obs.checkpoint import CheckpointSpec, find_checkpointer
from repro.sim.parallel import ParallelOutcome, _run_trial_batch, _scenario_for

__all__ = [
    "DEFAULT_POLL_S",
    "WorkerReport",
    "run_worker",
    "execute_shard_in_process",
    "publish_shard",
]

logger = get_logger("campaign.worker")

#: How long a worker sleeps between scans when every pending shard is
#: held by a live foreign lease.
DEFAULT_POLL_S = 0.2


def _shard_losses(
    outcomes: List[Dict[str, ParallelOutcome]], shard: ShardSpec
) -> Dict[str, List[float]]:
    """Collapse a shard's trial outcomes into per-scheme loss series."""
    return {
        name: [trial[name].loss_db for trial in outcomes]
        for name in shard.scheme_names()
    }


def _corrupt_artifact(store: ShardStore, shard: ShardSpec) -> None:
    """Truncate a freshly-written artifact (fault-injection only)."""
    path = store.shard_path(shard.digest)
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: max(1, len(text) // 2)], encoding="utf-8")


def _worker_lane(worker_id: str) -> Optional[int]:
    """A stable integer lane for trace rendering, from a trailing index.

    ``w3`` -> 3: the Chrome-trace exporter maps integer ``worker`` span
    attributes to per-worker lanes, so spawned workers with indexed ids
    get their own swimlane while arbitrary ids just skip the attribute.
    """
    match = re.search(r"(\d+)$", worker_id)
    return int(match.group(1)) if match else None


def execute_shard_in_process(
    shard: ShardSpec,
    batch_trials: Optional[int],
    checkpoint_spec: Optional[CheckpointSpec],
    recorder: Any,
    collect: bool,
) -> Tuple[Dict[str, List[float]], Optional[List[dict]]]:
    """Run one shard's trials here; ``(losses, checkpoint payloads)``.

    With a checkpoint spec the shard runs under its own worker-style
    recorder (digests + metrics ride back and merge into ``recorder``);
    without one it runs under the ambient recorder directly.
    """
    outcomes, aux = _run_trial_batch(
        shard.config,
        shard.schemes,
        shard.search_rate,
        shard.base_seed,
        shard.trial_indices,
        collect if checkpoint_spec is not None else False,
        batch_trials,
        checkpoint_spec,
    )
    snapshot = aux.get("metrics") if aux else None
    if collect and snapshot and recorder.metrics is not None:
        recorder.metrics.merge_snapshot(snapshot)
    return _shard_losses(outcomes, shard), (aux.get("checkpoints") if aux else None)


def publish_shard(
    store: ShardStore,
    shard: ShardSpec,
    losses: Dict[str, List[float]],
    digests: Optional[List[dict]] = None,
    lease: Optional[LeaseManager] = None,
) -> bool:
    """Write one shard artifact unless the zombie guard forbids it.

    A worker whose lease was taken over mid-execution (TTL expiry while
    it was stalled, then revival) must not overwrite an artifact the new
    owner already completed — even though the bytes would be identical
    today, write-once artifacts keep the store's history trivially
    auditable. When the lease is lost but *no* artifact exists yet, the
    write proceeds: determinism makes it exactly the artifact any owner
    would produce. Returns False when the write was discarded.
    """
    if lease is not None and not lease.still_owns(shard.digest):
        if store.has(shard):
            logger.warning(
                "discarding stale result for shard %s: lease lost and a"
                " newer artifact exists",
                shard.digest[:12],
            )
            return False
    store.put(shard, losses, digests=digests)
    return True


@dataclass(frozen=True)
class WorkerReport:
    """What one :func:`run_worker` invocation actually did."""

    worker_id: str
    executed: int = 0
    #: shards observed already-done (pre-existing or foreign-completed)
    skipped: int = 0
    retries: int = 0
    #: claim attempts that lost to a live foreign lease (per scan, so one
    #: contended shard can count several times across polls)
    conflicts: int = 0
    #: expired/dead leases this worker took over
    takeovers: int = 0
    #: completed results discarded by the zombie publish guard
    discarded: int = 0
    failed_digests: Tuple[str, ...] = ()


def run_worker(
    plan: CampaignPlan,
    store: ShardStore,
    worker_id: Optional[str] = None,
    batch_trials: Optional[int] = None,
    retries: int = 2,
    backoff_s: float = 0.0,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    poll_s: float = DEFAULT_POLL_S,
    claim_batch: int = 1,
    max_shards: Optional[int] = None,
    heartbeats: bool = True,
    checkpoints: bool = False,
    fault_injector: Optional[Any] = None,
    progress: Optional[ProgressCallback] = None,
) -> WorkerReport:
    """Run one lease-based worker until every shard of ``plan`` resolves.

    The loop terminates when each shard is either done (by anyone) or
    permanently failed *by this worker*; shards failed by other workers
    are retried here once their lease frees up, so transient per-host
    failures don't poison the campaign. ``claim_batch`` claims up to
    that many free shards per scan before executing them, amortizing
    claim I/O on large plans (queued leases are renewed between shards).
    ``max_shards`` bounds how many shards this invocation executes —
    drain-style workers for tests and budgeted runs. Failures are
    reported in ``failed_digests``, never raised: another worker (or a
    resume) may still finish the campaign.

    Retry/backoff, heartbeat, and checkpoint semantics match
    :func:`~repro.campaign.scheduler.run_campaign`; heartbeats and spans
    additionally carry this worker's id for provenance and trace lanes.
    """
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    if batch_trials is not None and batch_trials < 1:
        raise ConfigurationError(f"batch_trials must be >= 1, got {batch_trials}")
    if claim_batch < 1:
        raise ConfigurationError(f"claim_batch must be >= 1, got {claim_batch}")
    recorder = get_recorder()
    parent_checkpointer = find_checkpointer(recorder)
    checkpoint_spec: Optional[CheckpointSpec] = None
    if checkpoints or parent_checkpointer is not None:
        checkpoint_spec = (
            parent_checkpointer.spec_for_workers()
            if parent_checkpointer is not None
            else CheckpointSpec()
        )
    store.save_manifest(plan)
    wid = worker_id or f"worker-{os.getpid()}"
    lane = _worker_lane(wid)
    lane_attrs = {"worker": lane} if lane is not None else {}
    lease = LeaseManager(store, plan.digest, owner=wid, ttl_s=lease_ttl_s)
    reporter = ProgressReporter(plan.total_trials, progress, label=f"worker {wid}")
    collect = recorder.enabled and recorder.metrics is not None

    executed = skipped = retry_count = conflicts = discarded = 0
    done_trials = 0
    resolved: set = set()  # digests done/absorbed (by anyone) or failed here
    failed: List[str] = []

    def beat(shard: ShardSpec, index: int, status: str, **extra: Any) -> None:
        """Publish one liveness record; never let it fail the worker."""
        if not heartbeats:
            return
        try:
            store.write_heartbeat(
                plan.digest,
                shard.digest,
                status,
                shard_index=index,
                trial_count=shard.trial_count,
                worker=wid,
                host=local_hostname(),
                **extra,
            )
            recorder.increment("campaign.heartbeats")
        except OSError as error:  # pragma: no cover - disk-full/permissions
            logger.warning("heartbeat write failed for shard %d: %s", index, error)

    def resolve(shard: ShardSpec) -> None:
        nonlocal done_trials
        resolved.add(shard.digest)
        done_trials += shard.trial_count
        reporter.report(done_trials)

    def execute_one(index: int, shard: ShardSpec) -> None:
        """Claimed-shard execution: retries, publish guard, release."""
        nonlocal executed, retry_count, discarded
        shard_started = time.time()
        beat(shard, index, "running", started_unix_s=shard_started)
        with recorder.span(
            "campaign.shard",
            digest=shard.digest,
            search_rate=shard.search_rate,
            trial_start=shard.trial_start,
            trial_count=shard.trial_count,
            worker_id=wid,
            **lane_attrs,
        ) as shard_span:
            losses: Optional[Dict[str, List[float]]] = None
            shard_digests: Optional[List[dict]] = None
            attempt = 0
            while losses is None:
                try:
                    if fault_injector is not None:
                        fault_injector.before_attempt(index)
                    losses, shard_digests = execute_shard_in_process(
                        shard, batch_trials, checkpoint_spec, recorder, collect
                    )
                except CampaignAborted:
                    raise
                except Exception as error:  # noqa: BLE001 - retried
                    attempt += 1
                    shard_span.annotate(last_error=str(error))
                    if attempt > retries:
                        logger.error(
                            "shard %s failed permanently on %s: %s",
                            shard.digest[:12],
                            wid,
                            error,
                        )
                        recorder.increment("campaign.shards_failed")
                        failed.append(shard.digest)
                        resolved.add(shard.digest)
                        beat(
                            shard,
                            index,
                            "failed",
                            attempt=attempt,
                            started_unix_s=shard_started,
                            error=str(error),
                        )
                        lease.release(shard.digest)
                        return
                    retry_count += 1
                    recorder.increment("campaign.retries")
                    recorder.event(
                        "campaign.shard_retry", digest=shard.digest, attempt=attempt
                    )
                    beat(
                        shard,
                        index,
                        "retrying",
                        attempt=attempt,
                        started_unix_s=shard_started,
                    )
                    logger.warning(
                        "shard %s attempt %d failed (%s); retrying",
                        shard.digest[:12],
                        attempt,
                        error,
                    )
                    delay = backoff_delay(backoff_s, attempt, shard.digest)
                    if delay > 0.0:
                        time.sleep(delay)
                    lease.renew(shard.digest)
            published = publish_shard(
                store, shard, losses,
                digests=shard_digests, lease=lease,
            )
            if not published:
                discarded += 1
                recorder.increment("campaign.lease_discards")
                recorder.event("campaign.lease_discard", digest=shard.digest)
                resolve(shard)
                lease.release(shard.digest)
                return
            if parent_checkpointer is not None and shard_digests:
                parent_checkpointer.absorb(shard_digests)
            if fault_injector is not None and fault_injector.corrupts(index):
                _corrupt_artifact(store, shard)
            executed += 1
            recorder.increment("campaign.shards_executed")
            shard_span.annotate(attempts=attempt + 1)
            beat(
                shard,
                index,
                "done",
                attempt=attempt,
                started_unix_s=shard_started,
                duration_s=time.time() - shard_started,
            )
            resolve(shard)
        lease.release(shard.digest)
        if fault_injector is not None:
            fault_injector.after_shard(index)

    logger.info(
        "worker %s: plan %s, %d shards (%d trials), lease ttl %.1fs",
        wid,
        plan.digest[:12],
        len(plan.shards),
        plan.total_trials,
        lease_ttl_s,
    )
    with recorder.span(
        "campaign.worker",
        plan=plan.digest,
        worker_id=wid,
        num_shards=len(plan.shards),
        **lane_attrs,
    ) as worker_span:
        if plan.shards:
            # Prime the scenario context *before* claiming anything, so
            # codebook construction never eats into a held lease's TTL.
            _scenario_for(plan.shards[0].config)
        try:
            budget_spent = False
            while len(resolved) < len(plan.shards) and not budget_spent:
                progressed = False
                contended = False
                claimed: List[Tuple[int, ShardSpec]] = []

                def drain() -> None:
                    nonlocal progressed, skipped
                    for index, shard in claimed:
                        lease.renew_due()
                        if store.has(shard):  # finished while queued
                            lease.release(shard.digest)
                            skipped += 1
                            recorder.increment("campaign.shards_skipped")
                            resolve(shard)
                        else:
                            execute_one(index, shard)
                        progressed = True
                    claimed.clear()

                for index, shard in enumerate(plan.shards):
                    if max_shards is not None and executed >= max_shards:
                        budget_spent = True
                        break
                    if shard.digest in resolved:
                        continue
                    if store.has(shard):
                        skipped += 1
                        recorder.increment("campaign.shards_skipped")
                        resolve(shard)
                        progressed = True
                        continue
                    prior_takeovers = lease.takeovers
                    if not lease.acquire(shard.digest):
                        conflicts += 1
                        contended = True
                        recorder.increment("campaign.lease_conflicts")
                        continue
                    if lease.takeovers > prior_takeovers:
                        recorder.increment("campaign.lease_takeovers")
                        recorder.event(
                            "campaign.lease_takeover", digest=shard.digest
                        )
                    claimed.append((index, shard))
                    if len(claimed) >= claim_batch:
                        drain()
                if budget_spent:
                    # Claimed-but-unexecuted shards go back to the pool.
                    for _, shard in claimed:
                        lease.release(shard.digest)
                    claimed.clear()
                drain()
                if len(resolved) >= len(plan.shards) or budget_spent:
                    break
                if not progressed:
                    if not contended:  # pragma: no cover - defensive
                        break
                    time.sleep(poll_s)
        finally:
            lease.release_all()
        worker_span.annotate(
            executed=executed,
            skipped=skipped,
            retries=retry_count,
            conflicts=conflicts,
            takeovers=lease.takeovers,
            discarded=discarded,
            failed=len(failed),
        )
    return WorkerReport(
        worker_id=wid,
        executed=executed,
        skipped=skipped,
        retries=retry_count,
        conflicts=conflicts,
        takeovers=lease.takeovers,
        discarded=discarded,
        failed_digests=tuple(failed),
    )

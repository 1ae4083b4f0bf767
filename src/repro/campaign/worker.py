"""Lease-based campaign worker: the coordinator-free execution loop.

:func:`run_worker` is one independent worker against one plan + store.
It scans the plan from a worker-specific start (:func:`_scan_start`),
skips shards with valid artifacts, claims free shards through
:class:`~repro.campaign.lease.LeaseManager`, executes them in-process
(optionally through the batched engine), publishes each artifact through
the zombie guard (:func:`publish_shard`), and releases the lease. Shards
held by a live foreign lease are left alone; the worker re-scans until
every shard is resolved, taking over leases whose workers crashed, and
backs off between scans that find nothing to do. N workers pointed at
the same store therefore partition the plan dynamically with no
coordinator process — the store *is* the coordinator.

Determinism makes this safe: every shard artifact is a pure function of
its spec, so the worst a lease race can cost is duplicated CPU, never a
wrong byte. The same property powers the zombie guard: a worker that
lost its lease mid-shard may still write when no artifact exists yet
(the bytes are identical to what the new owner would write), and must
discard when one does (never clobber a completed artifact with a late
write — artifacts stay strictly write-once from the store's viewpoint).

This loop is the only shard executor:
:func:`repro.campaign.scheduler.run_campaign` runs it in-process, and
:func:`repro.campaign.distributed.launch_campaign` runs it in N child
processes. Campaign trial ranges (:class:`~repro.campaign.plan.ShardSpec`)
and cell UE ranges (:class:`repro.cell.shards.CellShard`) take one path:
every shard kind executes itself (:func:`execute_shard_in_process` calls
its ``execute``) and encodes its own artifact (see
:mod:`repro.campaign.plan`).
"""

from __future__ import annotations

import math
import os
import re
import time
from dataclasses import dataclass
from typing import AbstractSet, Any, List, Optional, Tuple, Union

from repro.campaign.lease import (
    DEFAULT_LEASE_TTL_S,
    LeaseManager,
    backoff_delay,
    local_hostname,
)
from repro.campaign.plan import CampaignPlan
from repro.campaign.store import ShardStore
from repro.exceptions import CampaignAborted, ConfigurationError
from repro.obs import (
    MetricsRecorder,
    ProgressCallback,
    ProgressReporter,
    get_logger,
    get_recorder,
    use_recorder,
)
from repro.obs.checkpoint import CheckpointSpec, find_checkpointer
from repro.sim.batch import check_block_size
from repro.sim.parallel import _scenario_for

__all__ = [
    "DEFAULT_POLL_S",
    "WorkerReport",
    "run_worker",
    "execute_shard_in_process",
    "publish_shard",
]

logger = get_logger("campaign.worker")

#: The longest a worker sleeps between scans when every pending shard is
#: held by a live foreign lease.
DEFAULT_POLL_S = 0.2

#: The first such sleep; each further idle scan doubles it up to
#: ``poll_s``, so a worker waiting on another's last shard wakes within
#: milliseconds of it landing, while a long wait still polls at ``poll_s``.
_FIRST_IDLE_S = 0.005

#: 1/phi: successive lanes' scan starts land far apart on the plan.
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Id prefix of the in-process worker
#: :func:`~repro.campaign.scheduler.run_campaign` runs.
SUPERVISOR_PREFIX = "supervisor-"


def _corrupt_artifact(store: ShardStore, shard: Any) -> None:
    """Truncate a freshly-written artifact (fault-injection only)."""
    path = store.shard_path(shard.digest)
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: max(1, len(text) // 2)], encoding="utf-8")


def _worker_lane(worker_id: str) -> Optional[int]:
    """A stable integer lane for trace rendering, from a trailing index.

    ``w3`` -> 3: the Chrome-trace exporter maps integer ``worker`` span
    attributes to per-worker lanes, so spawned workers with indexed ids
    get their own swimlane while arbitrary ids just skip the attribute.
    ``supervisor-<pid>`` has no lane, so it scans in plan order.
    """
    if worker_id.startswith(SUPERVISOR_PREFIX):
        return None
    match = re.search(r"(\d+)$", worker_id)
    return int(match.group(1)) if match else None


def _scan_start(lane: Optional[int], num_shards: int) -> int:
    """The plan index a worker's scans begin at: ``frac(lane / phi) * n``.

    Workers that all scanned from index 0 would contend for the same
    shard at every step. Offsetting lane ``k`` by the golden-ratio
    fraction puts ``w0`` and ``w1`` ~62% of the plan apart, and every
    further lane lands in one of the largest gaps left. Lane 0 and ids with no
    trailing index start at 0, the plan's own order.
    """
    if not lane:
        return 0
    return int((lane * _INV_GOLDEN) % 1.0 * num_shards)


def check_worker_options(retries: int, batch_trials: Optional[int]) -> None:
    """Reject worker-loop options no worker could run with."""
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    check_block_size(batch_trials)


def execute_shard_in_process(
    shard: Any,
    batch_trials: Optional[int],
    checkpoint_spec: Optional[CheckpointSpec],
    recorder: Any,
    collect: bool,
) -> Tuple[Any, Optional[List[dict]]]:
    """Run one shard of any kind here; ``(result, checkpoint payloads)``.

    Without a checkpoint spec the shard runs under the ambient recorder
    and no payloads come back. With one it runs under its own flight
    recorder, whose stage digests come back; with ``collect`` that
    recorder also counts metrics, which merge into ``recorder``.
    """
    if checkpoint_spec is None:
        return shard.execute(batch_trials), None
    inner = MetricsRecorder() if collect else None
    checkpointer = checkpoint_spec.build(inner)
    with use_recorder(checkpointer):
        result = shard.execute(batch_trials)
    if inner is not None and recorder.metrics is not None:
        recorder.metrics.merge_snapshot(inner.metrics.snapshot())
    return result, checkpointer.payload()


def publish_shard(
    store: ShardStore,
    shard: Any,
    result: Any,
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
    store.put(shard, result, digests=digests)
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
    max_shards: Optional[int] = None,
    checkpoints: Union[bool, CheckpointSpec] = False,
    fault_injector: Optional[Any] = None,
    progress: Optional[ProgressCallback] = None,
    known_done: AbstractSet[str] = frozenset(),
) -> WorkerReport:
    """Run one lease-based worker until every shard of ``plan`` resolves.

    ``plan`` is a campaign plan or a cell plan
    (:func:`repro.cell.shards.plan_cell`); ``batch_trials`` is either
    kind's block size (trials, or UEs per batched channel block).

    The loop terminates when each shard is either done (by anyone) or
    permanently failed *by this worker*; shards failed by other workers
    are retried here once their lease frees up, so transient per-host
    failures don't poison the campaign. A claimed shard is checked once
    more under its lease (another worker may have finished it between
    the scan's check and the claim) and then executed. When a scan
    finds every pending shard held by a live foreign lease, the worker
    sleeps before the next one: 5 ms at first, doubling on each further
    idle scan up to ``poll_s``, and back to 5 ms after any progress.
    ``max_shards`` bounds how many shards this invocation executes —
    drain-style workers for tests and budgeted runs. Failures are
    reported in ``failed_digests``, never raised: another worker (or a
    resume) may still finish the campaign.

    ``known_done`` holds digests of shards the caller has already seen
    done (:func:`~repro.campaign.distributed.launch_campaign` hands its
    workers the set from its own status pass); they are skipped without
    reading their artifacts. Every other shard is validated before it is
    claimed.

    Failing shards are retried with :func:`~repro.campaign.lease.backoff_delay`
    between attempts. An executed shard costs two fsynced writes: its
    claim and its artifact. Its ``done`` / ``retrying`` / ``failed``
    records are appended, unsynced, to this process's heartbeat journal
    under the store's ``heartbeats/``; while it runs, its claim is what
    shows it ``running``. ``checkpoints`` (``True``,
    a :class:`~repro.obs.checkpoint.CheckpointSpec`, or an active flight
    recorder) stores each shard's stage digests in its artifact; a flight
    recorder also receives executed shards' digests and skipped shards'
    stored manifests in scan order (plan order for lane 0). Heartbeats
    and spans carry this worker's id for provenance and trace lanes.
    """
    check_worker_options(retries, batch_trials)
    recorder = get_recorder()
    parent_checkpointer = find_checkpointer(recorder)
    checkpoint_spec: Optional[CheckpointSpec] = None
    if parent_checkpointer is not None:
        checkpoint_spec = parent_checkpointer.spec_for_workers()
    elif isinstance(checkpoints, CheckpointSpec):
        checkpoint_spec = checkpoints
    elif checkpoints:
        checkpoint_spec = CheckpointSpec()
    store.save_manifest(plan)
    wid = worker_id or f"worker-{os.getpid()}"
    lane = _worker_lane(wid)
    lane_attrs = {"worker": lane} if lane is not None else {}
    lease = LeaseManager(store, plan.digest, owner=wid, ttl_s=lease_ttl_s)
    reporter = ProgressReporter(plan.total_trials, progress, label=f"worker {wid}")
    collect = recorder.enabled and recorder.metrics is not None

    start = _scan_start(lane, len(plan.shards))
    scan_order = list(enumerate(plan.shards))
    scan_order = scan_order[start:] + scan_order[:start]
    first_idle_s = min(poll_s, _FIRST_IDLE_S)
    idle_s = first_idle_s

    executed = skipped = retry_count = conflicts = discarded = 0
    done_trials = 0
    primed = False
    resolved: set = set()  # digests done/absorbed (by anyone) or failed here
    failed: List[str] = []

    def beat(shard: Any, index: int, status: str, **extra: Any) -> None:
        """Publish one liveness record; never let it fail the worker."""
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

    def resolve(shard: Any) -> None:
        nonlocal done_trials
        resolved.add(shard.digest)
        done_trials += shard.trial_count
        reporter.report(done_trials)

    def skip(shard: Any) -> None:
        """Resolve a shard someone already completed, replaying its
        stored digest manifest into the flight recorder, if any."""
        nonlocal skipped
        skipped += 1
        recorder.increment("campaign.shards_skipped")
        if parent_checkpointer is not None:
            manifest = store.digest_manifest(shard)
            if manifest:
                parent_checkpointer.absorb(manifest)
        resolve(shard)

    def execute_one(index: int, shard: Any) -> None:
        """Claimed-shard execution: retries, publish guard, release."""
        nonlocal executed, retry_count, discarded
        shard_started = time.time()
        with recorder.span(
            "campaign.shard",
            digest=shard.digest,
            search_rate=shard.search_rate,
            trial_start=shard.trial_start,
            trial_count=shard.trial_count,
            worker_id=wid,
            **lane_attrs,
        ) as shard_span:
            result: Any = None
            shard_digests: Optional[List[dict]] = None
            attempt = 0
            while result is None:
                try:
                    if fault_injector is not None:
                        fault_injector.before_attempt(index)
                    result, shard_digests = execute_shard_in_process(
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
                store, shard, result,
                digests=shard_digests, lease=lease,
            )
            if parent_checkpointer is not None and shard_digests:
                # A discarded result's digests equal the published ones.
                parent_checkpointer.absorb(shard_digests)
            if not published:
                discarded += 1
                recorder.increment("campaign.lease_discards")
                recorder.event("campaign.lease_discard", digest=shard.digest)
                resolve(shard)
                lease.release(shard.digest)
                return
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
        try:
            budget_spent = False
            while len(resolved) < len(plan.shards) and not budget_spent:
                progressed = False
                contended = False
                for index, shard in scan_order:
                    if max_shards is not None and executed >= max_shards:
                        budget_spent = True
                        break
                    if shard.digest in resolved:
                        continue
                    if shard.digest in known_done or store.has(shard):
                        skip(shard)
                        progressed = True
                        continue
                    if not primed:
                        # Build the scenario right before the first claim:
                        # codebook construction never eats into a held
                        # lease's TTL, and a worker that claims nothing
                        # (every shard already done) builds nothing.
                        _scenario_for(shard.scenario_config)
                        primed = True
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
                    if store.has(shard):  # finished between the check and the claim
                        lease.release(shard.digest)
                        skip(shard)
                    else:
                        execute_one(index, shard)
                    progressed = True
                if len(resolved) >= len(plan.shards) or budget_spent:
                    break
                if progressed:
                    idle_s = first_idle_s
                    continue
                if not contended:  # pragma: no cover - defensive
                    break
                time.sleep(idle_s)
                idle_s = min(poll_s, 2.0 * idle_s)
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

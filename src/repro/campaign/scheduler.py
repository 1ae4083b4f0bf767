"""Supervising shard scheduler: retries, timeouts, graceful degradation.

:func:`run_campaign` drives a :class:`~repro.campaign.plan.CampaignPlan`
to completion against a :class:`~repro.campaign.store.ShardStore`:

* shards with a valid artifact are **skipped** (this is what makes an
  interrupted campaign resumable — re-running the same plan continues
  where it stopped);
* pending shards execute through a worker pool (or in-process), with
  per-shard **retry + exponential backoff**;
* a worker-pool hard crash (:class:`BrokenProcessPool`) or a per-shard
  **timeout** degrades gracefully: the affected shard re-runs in the
  parent process instead of failing the campaign;
* a :class:`FaultInjector` can deterministically crash, delay, or
  corrupt shards and abort the campaign mid-run — the test harness for
  all of the above.

Because shard seeds come from ``trial_generator(base_seed, k)``, every
retry/fallback path produces bit-identical results, so a resumed
campaign's aggregate equals an uninterrupted run's byte-for-byte.

The supervisor is one participant in the store's lease protocol (see
:mod:`repro.campaign.lease` and :mod:`repro.campaign.worker`): it claims
each shard before executing, defers shards other workers hold, and
publishes through the zombie guard — so a supervisor and any number of
``repro campaign worker`` processes can share one store safely. For a
fully coordinator-free N-process mode see
:func:`repro.campaign.distributed.launch_campaign`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.campaign.lease import (
    DEFAULT_LEASE_TTL_S,
    LeaseManager,
    backoff_delay,
    local_hostname,
)
from repro.campaign.plan import CampaignPlan, ShardSpec
from repro.campaign.store import ShardStore
# _shard_losses/_corrupt_artifact are re-exported: they lived here before
# moving to the shared worker module, and tests import them from here.
from repro.campaign.worker import (  # noqa: F401
    _corrupt_artifact,
    _shard_losses,
    execute_shard_in_process,
    publish_shard,
)
from repro.exceptions import CampaignAborted, ConfigurationError, ShardExecutionError
from repro.obs import ProgressCallback, ProgressReporter, get_logger, get_recorder
from repro.obs.checkpoint import CheckpointSpec, find_checkpointer
from repro.sim.parallel import _run_trial_batch, _worker_init

__all__ = [
    "FaultInjector",
    "InjectedFault",
    "CampaignStatus",
    "CampaignReport",
    "campaign_status",
    "run_campaign",
]

logger = get_logger("campaign.scheduler")


class InjectedFault(RuntimeError):
    """A deliberate, test-injected shard failure (retried like any other)."""


@dataclass
class FaultInjector:
    """Deterministic fault injection for campaign tests and smoke jobs.

    * ``crash_shards`` maps a shard's plan index to how many attempts
      should fail with :class:`InjectedFault` before succeeding;
    * ``corrupt_shards`` lists plan indices whose artifacts are truncated
      after writing (resume must detect and re-run them);
    * ``delay_s`` sleeps before every attempt (exercises timeouts);
    * ``abort_after`` raises :class:`CampaignAborted` once that many
      shards have been executed this run (simulates a crash/Ctrl-C).

    The injector runs entirely in the parent process, so its behaviour is
    identical under any worker count.
    """

    crash_shards: Mapping[int, int] = field(default_factory=dict)
    corrupt_shards: Sequence[int] = ()
    delay_s: float = 0.0
    abort_after: Optional[int] = None
    _remaining: Dict[int, int] = field(init=False, default_factory=dict)
    _executed: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self._remaining = dict(self.crash_shards)

    def before_attempt(self, shard_index: int) -> None:
        """Called before every execution attempt; may raise or delay."""
        if self.delay_s > 0.0:
            time.sleep(self.delay_s)
        if self._remaining.get(shard_index, 0) > 0:
            self._remaining[shard_index] -= 1
            raise InjectedFault(f"injected crash for shard {shard_index}")

    def corrupts(self, shard_index: int) -> bool:
        """True when this shard's artifact should be written corrupted."""
        return shard_index in set(self.corrupt_shards)

    def after_shard(self, shard_index: int) -> None:
        """Called after a shard executes; may abort the whole campaign."""
        self._executed += 1
        if self.abort_after is not None and self._executed >= self.abort_after:
            raise CampaignAborted(
                f"fault injector aborted after {self._executed} shards"
            )


@dataclass(frozen=True)
class CampaignStatus:
    """Done/pending/failed shard counts for one plan against one store."""

    done: int
    pending: int
    failed: int
    total_trials: int
    done_trials: int

    @property
    def total(self) -> int:
        return self.done + self.pending + self.failed

    @property
    def complete(self) -> bool:
        return self.pending == 0 and self.failed == 0


@dataclass(frozen=True)
class CampaignReport:
    """What one :func:`run_campaign` invocation actually did."""

    executed: int
    skipped: int
    retries: int
    fallbacks: int
    failed_digests: Tuple[str, ...] = ()
    #: shards another worker's lease blocked at first encounter (resolved
    #: later by foreign completion or local takeover)
    deferred: int = 0


def campaign_status(plan: CampaignPlan, store: ShardStore) -> CampaignStatus:
    """Classify every shard of ``plan`` against ``store``."""
    done = pending = failed = done_trials = 0
    for shard in plan.shards:
        verdict = store.classify(shard)
        if verdict == "done":
            done += 1
            done_trials += shard.trial_count
        elif verdict == "failed":
            failed += 1
        else:
            pending += 1
    return CampaignStatus(
        done=done,
        pending=pending,
        failed=failed,
        total_trials=plan.total_trials,
        done_trials=done_trials,
    )


def run_campaign(
    plan: CampaignPlan,
    store: ShardStore,
    max_workers: Optional[int] = None,
    batch_trials: Optional[int] = None,
    retries: int = 2,
    backoff_s: float = 0.0,
    timeout_s: Optional[float] = None,
    fault_injector: Optional[FaultInjector] = None,
    progress: Optional[ProgressCallback] = None,
    heartbeats: bool = True,
    checkpoints: bool = False,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    worker_id: Optional[str] = None,
) -> CampaignReport:
    """Execute every pending shard of ``plan``; skip completed ones.

    ``max_workers=None`` or ``1`` runs shards in-process; otherwise each
    shard is one pool task (``_run_trial_batch``) and ``timeout_s``
    bounds how long the parent waits per shard before falling back to
    in-process execution. ``batch_trials`` routes each shard's trials
    through the in-process batched engine (bit-identical results). A
    shard that keeps failing after ``retries`` extra attempts is recorded
    and the campaign continues; :class:`ShardExecutionError` is raised at
    the end if any shard permanently failed.

    ``heartbeats`` (default on) publishes one liveness record per shard
    into the store's ``heartbeats/`` subtree — running/retrying/done/
    failed, with timestamps — which is what ``repro campaign watch`` and
    ``status --json`` read. Heartbeats are strictly observational: they
    live outside the artifact tree, never feed back into the
    computation, and a heartbeat write failure only logs a warning —
    results are bit-identical with heartbeats on or off.

    ``checkpoints`` (or an active flight recorder in the parent) makes
    every executed shard run under a worker-local
    :class:`~repro.obs.checkpoint.CheckpointRecorder`; the per-trial
    stage digests ride back with the shard result and are stored in the
    artifact's additive ``digests`` manifest block, so ``repro diff`` and
    :func:`~repro.campaign.assemble.assemble_effectiveness_sweep` can
    verify provenance without re-running. Digesting never touches RNG
    streams, so artifacts' ``result`` blocks are bit-identical either
    way.

    The supervisor participates in the distributed lease protocol (see
    :mod:`repro.campaign.lease`): every shard is claimed before execution
    and released after publication, so ``run_campaign`` can run
    *concurrently* with ``repro campaign worker`` processes against the
    same store without duplicated work. Shards another worker holds are
    deferred and resolved at the end — absorbed when the foreign worker
    publishes them, taken over and executed here when its lease expires.
    With no other workers the lease path is a no-op apart from one claim
    file per in-flight shard, and all existing semantics are unchanged.
    ``lease_ttl_s``/``worker_id`` tune that protocol; retry backoff is
    exponential with deterministic per-shard jitter
    (:func:`~repro.campaign.lease.backoff_delay`).

    Safe to call repeatedly with the same arguments: completed shards are
    skipped, so this is also the *resume* entry point.
    """
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    if batch_trials is not None and batch_trials < 1:
        raise ConfigurationError(f"batch_trials must be >= 1, got {batch_trials}")
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
    wid = worker_id or f"supervisor-{os.getpid()}"
    lease = LeaseManager(store, plan.digest, owner=wid, ttl_s=lease_ttl_s)

    def beat(shard: ShardSpec, index: int, status: str, **extra) -> None:
        """Publish one liveness record; never let it fail the campaign."""
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
    reporter = ProgressReporter(plan.total_trials, progress, label="campaign")
    pooled = max_workers is not None and max_workers > 1
    logger.info(
        "campaign %s: %d shards (%d trials), workers=%s",
        plan.digest[:12],
        len(plan.shards),
        plan.total_trials,
        max_workers,
    )
    executed = skipped = retry_count = fallback_count = 0
    failed: List[str] = []
    done_trials = 0

    def execute_in_process(
        shard: ShardSpec,
    ) -> Tuple[Dict[str, List[float]], Optional[List[dict]]]:
        # Shared single-shard executor (also the worker loop's engine):
        # with a checkpoint spec the shard runs under its own worker-style
        # recorder (digests + metrics ride back and merge); without one it
        # runs under the ambient recorder exactly as before.
        return execute_shard_in_process(
            shard, batch_trials, checkpoint_spec, recorder, collect
        )

    with recorder.span(
        "campaign.run",
        plan=plan.digest,
        num_shards=len(plan.shards),
        total_trials=plan.total_trials,
        workers=max_workers or 1,
    ) as campaign_span:
        pending = [
            (index, shard)
            for index, shard in enumerate(plan.shards)
            if not store.has(shard)
        ]
        skipped = len(plan.shards) - len(pending)
        done_trials = plan.total_trials - sum(s.trial_count for _, s in pending)
        if skipped:
            recorder.increment("campaign.shards_skipped", skipped)
            reporter.report(done_trials)

        pool: Optional[ProcessPoolExecutor] = None
        futures: Dict[int, "Future"] = {}
        collect = recorder.enabled and recorder.metrics is not None
        try:
            if pooled and pending:
                pool = ProcessPoolExecutor(
                    max_workers=max_workers,
                    initializer=_worker_init,
                    initargs=(pending[0][1].config,),
                )
                for index, shard in pending:
                    futures[index] = pool.submit(
                        _run_trial_batch,
                        shard.config,
                        shard.schemes,
                        shard.search_rate,
                        shard.base_seed,
                        shard.trial_indices,
                        collect,
                        batch_trials,
                        checkpoint_spec,
                    )

            pending_indices = {index for index, _ in pending}
            deferred: List[Tuple[int, ShardSpec]] = []
            deferred_total = 0
            lost = 0

            def absorb_manifest(shard: ShardSpec) -> None:
                # Replay a completed shard's stored digest manifest into
                # the parent flight recorder in place, so a resumed
                # campaign's event sequence is identical — order included
                # — to an uninterrupted run's.
                if parent_checkpointer is not None:
                    manifest = store.digest_manifest(shard)
                    if manifest:
                        parent_checkpointer.absorb(manifest)

            def claim(shard: ShardSpec) -> bool:
                """Acquire the shard's lease, recording takeover events."""
                prior_takeovers = lease.takeovers
                if not lease.acquire(shard.digest):
                    return False
                if lease.takeovers > prior_takeovers:
                    recorder.increment("campaign.lease_takeovers")
                    recorder.event("campaign.lease_takeover", digest=shard.digest)
                return True

            def process_shard(index: int, shard: ShardSpec) -> None:
                """Execute one lease-held shard: retries, publish, release."""
                nonlocal executed, done_trials, retry_count, fallback_count, lost
                losses: Optional[Dict[str, List[float]]] = None
                shard_digests: Optional[List[dict]] = None
                shard_started = time.time()
                beat(shard, index, "running", started_unix_s=shard_started)
                with recorder.span(
                    "campaign.shard",
                    digest=shard.digest,
                    search_rate=shard.search_rate,
                    trial_start=shard.trial_start,
                    trial_count=shard.trial_count,
                    worker_id=wid,
                ) as shard_span:
                    attempt = 0
                    while losses is None:
                        try:
                            if fault_injector is not None:
                                fault_injector.before_attempt(index)
                            future = futures.pop(index, None)
                            if future is not None:
                                pooled_result = _collect_pooled(
                                    future, shard, timeout_s, recorder
                                )
                                if pooled_result is None:  # pool broke or timed out
                                    fallback_count += 1
                                    recorder.increment("campaign.fallbacks")
                                    losses, shard_digests = execute_in_process(shard)
                                else:
                                    losses, shard_digests = pooled_result
                            else:
                                losses, shard_digests = execute_in_process(shard)
                        except CampaignAborted:
                            raise
                        except Exception as error:  # noqa: BLE001 - retried
                            attempt += 1
                            shard_span.annotate(last_error=str(error))
                            if attempt > retries:
                                logger.error(
                                    "shard %s failed permanently: %s",
                                    shard.digest[:12],
                                    error,
                                )
                                recorder.increment("campaign.shards_failed")
                                failed.append(shard.digest)
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
                                "campaign.shard_retry",
                                digest=shard.digest,
                                attempt=attempt,
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
                    if publish_shard(
                        store, shard, losses,
                        digests=shard_digests, lease=lease,
                    ):
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
                    else:
                        # Zombie guard: the lease was taken over and the
                        # new owner already published — identical bytes,
                        # so nothing is lost, just not double-written.
                        lost += 1
                        recorder.increment("campaign.lease_discards")
                        recorder.event("campaign.lease_discard", digest=shard.digest)
                    done_trials += shard.trial_count
                lease.release(shard.digest)
                reporter.report(done_trials)
                if fault_injector is not None:
                    fault_injector.after_shard(index)

            for index, shard in enumerate(plan.shards):
                if index not in pending_indices:
                    absorb_manifest(shard)
                    continue
                if not claim(shard):
                    # A live foreign lease: leave it to that worker for
                    # now and come back once the plan's own pass is done.
                    deferred.append((index, shard))
                    recorder.increment("campaign.lease_conflicts")
                    recorder.event("campaign.lease_deferred", digest=shard.digest)
                    continue
                lease.renew_due()
                process_shard(index, shard)

            deferred_total = len(deferred)
            while deferred:
                remaining: List[Tuple[int, ShardSpec]] = []
                progressed = False
                for index, shard in deferred:
                    if store.has(shard):
                        # The foreign worker completed it: absorb as a
                        # late skip — the artifact is byte-identical to
                        # what this supervisor would have produced.
                        absorb_manifest(shard)
                        skipped += 1
                        done_trials += shard.trial_count
                        recorder.increment("campaign.shards_skipped")
                        reporter.report(done_trials)
                        progressed = True
                    elif claim(shard):
                        process_shard(index, shard)
                        progressed = True
                    else:
                        remaining.append((index, shard))
                deferred = remaining
                if deferred and not progressed:
                    time.sleep(0.1)
        finally:
            lease.release_all()
            if pool is not None:
                for future in futures.values():
                    future.cancel()
                pool.shutdown(wait=False, cancel_futures=True)
        campaign_span.annotate(
            executed=executed,
            skipped=skipped,
            retries=retry_count,
            fallbacks=fallback_count,
            failed=len(failed),
            deferred=deferred_total,
            takeovers=lease.takeovers,
        )
    report = CampaignReport(
        executed=executed,
        skipped=skipped,
        retries=retry_count,
        fallbacks=fallback_count,
        failed_digests=tuple(failed),
        deferred=deferred_total,
    )
    if failed:
        raise ShardExecutionError(
            f"{len(failed)} shard(s) failed after {retries} retries: "
            + ", ".join(digest[:12] for digest in failed)
        )
    return report


def _collect_pooled(
    future: "Future",
    shard: ShardSpec,
    timeout_s: Optional[float],
    recorder,
) -> Optional[Tuple[Dict[str, List[float]], Optional[List[dict]]]]:
    """One pooled shard's ``(losses, checkpoint payloads)``; ``None``
    requests an in-process fallback.

    :class:`BrokenProcessPool` (worker hard-crash/OOM) and per-shard
    timeouts degrade to in-process execution rather than failing; other
    worker exceptions propagate to the retry loop.
    """
    try:
        outcomes, aux = future.result(timeout=timeout_s)
    except BrokenProcessPool as error:
        logger.warning(
            "worker pool broke on shard %s (%s); running in-process",
            shard.digest[:12],
            error,
        )
        recorder.event("campaign.pool_broken", digest=shard.digest)
        return None
    except FutureTimeoutError:
        logger.warning(
            "shard %s exceeded %.1fs in the pool; running in-process",
            shard.digest[:12],
            timeout_s or 0.0,
        )
        recorder.event("campaign.shard_timeout", digest=shard.digest)
        future.cancel()
        return None
    snapshot = aux.get("metrics") if aux else None
    if snapshot and recorder.enabled and recorder.metrics is not None:
        recorder.metrics.merge_snapshot(snapshot)
    return _shard_losses(outcomes, shard), (aux.get("checkpoints") if aux else None)

"""Coordinator-free multi-worker campaign execution on one host.

:func:`launch_campaign` spawns N OS processes, each running the
lease-based worker loop (:func:`repro.campaign.worker.run_worker`)
against the same plan + store, and watches the store until the campaign
resolves. There is no scheduler process and no IPC: the content-addressed
:class:`~repro.campaign.store.ShardStore` is the only shared state —
workers partition the plan dynamically through atomic claim files, a
SIGKILLed worker's leases expire (dead-pid fast path) and its shards are
taken over by the survivors, and the assembled aggregate is byte-identical
to a single-supervisor run because every shard artifact is a pure function
of its spec.

The same worker entry point backs ``repro campaign worker``, which is the
multi-*host* form of this: point workers on several machines at one
shared store directory and they coordinate through the identical claim
protocol, no launcher required.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.campaign.lease import DEFAULT_LEASE_TTL_S
from repro.campaign.plan import CampaignPlan
from repro.campaign.store import ShardStore
from repro.campaign.worker import DEFAULT_POLL_S
from repro.exceptions import ConfigurationError
from repro.obs import ProgressCallback, ProgressReporter, get_logger, get_recorder

__all__ = ["LaunchReport", "launch_campaign", "worker_attribution"]

logger = get_logger("campaign.distributed")

#: How long the launcher waits for workers to exit after the campaign
#: resolves before it gives up and terminates them.
_JOIN_GRACE_S = 60.0


@dataclass(frozen=True)
class LaunchReport:
    """What one :func:`launch_campaign` invocation observed."""

    plan_digest: str
    num_workers: int
    complete: bool
    #: per-worker process exit codes, in spawn order (None: still alive
    #: when the launcher gave up waiting)
    exit_codes: Tuple[Optional[int], ...]
    #: worker id -> shards whose *done* heartbeat credits that worker
    attribution: Dict[str, int]


def worker_attribution(store: ShardStore, plan: CampaignPlan) -> Dict[str, int]:
    """Which worker completed how many shards, from done heartbeats.

    Heartbeats are observational, so this is provenance — who did the
    work — not a correctness input; shards completed without heartbeats
    (or by pre-lease supervisors) are credited to ``pid-<pid>``.
    """
    counts: Dict[str, int] = {}
    for record in store.read_heartbeats(plan.digest).values():
        if record.get("status") != "done":
            continue
        worker = record.get("worker") or f"pid-{record.get('pid', '?')}"
        counts[worker] = counts.get(worker, 0) + 1
    return dict(sorted(counts.items()))


def _worker_entry(
    store_root: str, plan_digest: str, worker_id: str, options: Dict[str, Any]
) -> None:
    """Child-process entry: load the plan from the store and work it.

    Runs under a fresh worker-local recorder so a forked child never
    writes into the parent's trace stream; progress travels home through
    the store (artifacts + heartbeats), not the process boundary.
    """
    from repro.obs import MetricsRecorder, use_recorder
    from repro.campaign.worker import run_worker

    store = ShardStore(store_root)
    plan = store.load_manifests().get(plan_digest)
    if plan is None:
        logger.error("worker %s: plan %s not in store", worker_id, plan_digest[:12])
        sys.exit(3)
    with use_recorder(MetricsRecorder()):
        report = run_worker(plan, store, worker_id=worker_id, **options)
    sys.exit(1 if report.failed_digests else 0)


def launch_campaign(
    plan: CampaignPlan,
    store: ShardStore,
    num_workers: int = 2,
    batch_trials: Optional[int] = None,
    retries: int = 2,
    backoff_s: float = 0.0,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    poll_s: float = DEFAULT_POLL_S,
    claim_batch: int = 1,
    heartbeats: bool = True,
    checkpoints: bool = False,
    progress: Optional[ProgressCallback] = None,
    watch_interval_s: float = 0.2,
    start_method: Optional[str] = None,
) -> LaunchReport:
    """Spawn ``num_workers`` lease-based workers and watch to completion.

    The launcher's only jobs are to persist the plan manifest,
    fork/spawn the workers, and poll the store for aggregate progress — it holds no campaign state, so killing the
    launcher mid-run leaves a resumable store exactly like killing a
    supervisor does. Workers that crash are *not* respawned: their
    leases expire and the surviving workers absorb the orphaned shards,
    which is the reassignment path the kill-a-worker tests pin down.

    ``start_method`` overrides the multiprocessing start method (default:
    ``fork`` where available for cheap startup, else ``spawn``).
    """
    if num_workers < 1:
        raise ConfigurationError(f"num_workers must be >= 1, got {num_workers}")
    recorder = get_recorder()
    store.save_manifest(plan)
    method = start_method or (
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )
    context = multiprocessing.get_context(method)
    options: Dict[str, Any] = {
        "batch_trials": batch_trials,
        "retries": retries,
        "backoff_s": backoff_s,
        "lease_ttl_s": lease_ttl_s,
        "poll_s": poll_s,
        "claim_batch": claim_batch,
        "heartbeats": heartbeats,
        "checkpoints": checkpoints,
    }
    # Import here so the circular scheduler -> worker -> ... chain stays
    # one-directional at module-load time.
    from repro.campaign.scheduler import campaign_status

    reporter = ProgressReporter(plan.total_trials, progress, label="campaign")
    with recorder.span(
        "campaign.launch",
        plan=plan.digest,
        num_workers=num_workers,
        num_shards=len(plan.shards),
        total_trials=plan.total_trials,
        start_method=method,
    ) as span:
        workers = [
            context.Process(
                target=_worker_entry,
                args=(str(store.root), plan.digest, f"w{index}", options),
                name=f"repro-campaign-w{index}",
            )
            for index in range(num_workers)
        ]
        for index, process in enumerate(workers):
            process.start()
            recorder.event(
                "campaign.worker_spawned", worker=index, pid=process.pid
            )
        logger.info(
            "launched %d workers (%s) for plan %s",
            num_workers,
            method,
            plan.digest[:12],
        )
        try:
            while any(process.is_alive() for process in workers):
                status = campaign_status(plan, store)
                reporter.report(status.done_trials)
                if status.complete:
                    break
                time.sleep(watch_interval_s)
            deadline = time.time() + _JOIN_GRACE_S
            for process in workers:
                process.join(timeout=max(0.0, deadline - time.time()))
                if process.is_alive():  # pragma: no cover - hung worker
                    logger.warning("terminating hung worker %s", process.name)
                    process.terminate()
                    process.join()
        finally:
            for process in workers:
                if process.is_alive():  # pragma: no cover - abort path
                    process.terminate()
        for index, process in enumerate(workers):
            recorder.event(
                "campaign.worker_exited", worker=index, exit_code=process.exitcode
            )
        status = campaign_status(plan, store)
        reporter.report(status.done_trials)
        attribution = worker_attribution(store, plan)
        span.annotate(
            complete=status.complete,
            done=status.done,
            failed=status.failed,
            workers_failed=sum(
                1 for process in workers if process.exitcode not in (0, None)
            ),
        )
    return LaunchReport(
        plan_digest=plan.digest,
        num_workers=num_workers,
        complete=status.complete,
        exit_codes=tuple(process.exitcode for process in workers),
        attribution=attribution,
    )

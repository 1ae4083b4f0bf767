"""Coordinator-free multi-worker campaign execution on one host.

:func:`launch_campaign` spawns N OS processes, each running the
lease-based worker loop (:func:`repro.campaign.worker.run_worker`)
against the same plan + store, and watches the store until the campaign
resolves. There is no scheduler process: the content-addressed
:class:`~repro.campaign.store.ShardStore` is the only shared state —
workers partition the plan dynamically through atomic claim files, a
SIGKILLed worker's leases expire (dead-pid fast path) and its shards are
taken over by the survivors, and the assembled aggregate is byte-identical
to a single-supervisor run because every shard artifact is a pure function
of its spec. The only IPC is one one-way pipe per worker, over which it
sends its :class:`~repro.campaign.worker.WorkerReport` (and, when the
launcher collects metrics, its metrics snapshot) as it exits.

The same worker entry point backs ``repro campaign worker``, which is the
multi-*host* form of this: point workers on several machines at one
shared store directory and they coordinate through the identical claim
protocol, no launcher required.
"""

from __future__ import annotations

import functools
import multiprocessing
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.campaign.lease import DEFAULT_LEASE_TTL_S
from repro.campaign.plan import CampaignPlan
from repro.campaign.store import ShardStore
from repro.campaign.worker import DEFAULT_POLL_S, WorkerReport, check_worker_options
from repro.exceptions import ConfigurationError
from repro.obs import ProgressCallback, ProgressReporter, get_logger, get_recorder
from repro.obs.checkpoint import find_checkpointer

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
    #: per-worker reports, in spawn order (None: the worker died before
    #: sending one, e.g. SIGKILL or ``os._exit``)
    reports: Tuple[Optional[WorkerReport], ...]
    #: digests of the shards the launcher saw done by the time it returned
    done_digests: FrozenSet[str] = frozenset()
    #: shards already done when the launch began (its first status pass)
    already_done: int = 0


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


#: OpenBLAS thread-count entry points, by build: the plain library and
#: the ``scipy-openblas`` builds numpy's wheels bundle.
_OPENBLAS_PREFIXES = ("openblas_", "scipy_openblas_")
_OPENBLAS_SUFFIXES = ("", "64_")


@functools.lru_cache(maxsize=1)
def _openblas_threads() -> Optional[Tuple[Any, Any]]:
    """``(get_num_threads, set_num_threads)`` of the OpenBLAS this process
    has loaded, or None where none is found (or the platform has no
    ``/proc/self/maps`` to find it in). Looked up once per process: the
    lookup costs ~0.4 ms, a few percent of a launch that executes
    nothing."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted(
                {line.split()[-1] for line in maps if "openblas" in line.lower()}
            )
    except OSError:
        return None
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in _OPENBLAS_PREFIXES:
            for suffix in _OPENBLAS_SUFFIXES:
                getter = getattr(library, f"{prefix}get_num_threads{suffix}", None)
                setter = getattr(library, f"{prefix}set_num_threads{suffix}", None)
                if getter is not None and setter is not None:
                    return getter, setter
    return None


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the block with this process's OpenBLAS on one thread.

    Workers forked inside inherit it. The launcher starts one worker per
    core it is given, and a multi-threaded OpenBLAS parks a spinning
    helper thread on a core after each threaded call, so two workers with
    two BLAS threads each run several times slower than one. The
    launcher's own count is restored on exit; without OpenBLAS this does
    nothing.
    """
    controls = _openblas_threads()
    if controls is None:
        yield
        return
    getter, setter = controls
    previous = getter()
    setter(1)
    try:
        yield
    finally:
        setter(previous)


def _worker_entry(
    store: ShardStore,
    plan: CampaignPlan,
    worker_id: str,
    options: Dict[str, Any],
    collect: bool = False,
    home: Optional[Connection] = None,
) -> None:
    """Child-process entry: work the plan the launcher was given.

    The plan arrives with the process (inherited under ``fork``, pickled
    under ``spawn``) together with the digests it already computed, so
    a worker neither re-parses the store's manifests nor re-derives any
    content address. The store arrives the same way, so the manifest the
    launcher verified is not parsed again, and the shards the launcher
    saw done arrive in ``options["known_done"]``. Runs under a fresh
    worker-local recorder so a forked child never writes into the
    parent's trace stream; progress travels home through the store
    (artifacts + heartbeats). On exit the worker sends ``(report,
    metrics snapshot or None)`` over ``home``, when it has one.
    """
    from repro.obs import MetricsRecorder, use_recorder
    from repro.campaign.worker import run_worker

    recorder = MetricsRecorder()
    with use_recorder(recorder):
        report = run_worker(plan, store, worker_id=worker_id, **options)
    if home is not None:
        try:
            home.send((report, recorder.metrics.snapshot() if collect else None))
        except OSError:  # the launcher is gone; the store holds the work
            pass
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
    checkpoints: bool = False,
    progress: Optional[ProgressCallback] = None,
    watch_interval_s: float = 0.2,
) -> LaunchReport:
    """Spawn ``num_workers`` lease-based workers and watch to completion.

    The launcher's only jobs are to persist the plan manifest, compute
    every shard digest before the workers inherit the plan, make one
    status pass and hand the done set to the workers (they skip those
    shards unread), fork (where the platform has it, else spawn) the
    workers with OpenBLAS on one thread each, poll the store for aggregate progress every
    ``watch_interval_s``, and collect each worker's report as it exits.
    Each poll re-reads only the shards not yet seen done, so no shard's
    artifact is read twice by the launcher. It holds no campaign state,
    so killing the launcher mid-run leaves a resumable store exactly like
    killing a supervisor does. Workers that crash are *not* respawned: their
    leases expire and the surviving workers absorb the orphaned shards,
    which is the reassignment path the kill-a-worker tests pin down.

    Workers run their shards under this process's flight-recorder
    configuration (perturbation included) when one is active, and send
    their metrics snapshots home for merging when this process's
    recorder collects metrics.
    """
    if num_workers < 1:
        raise ConfigurationError(f"num_workers must be >= 1, got {num_workers}")
    check_worker_options(retries, batch_trials)
    recorder = get_recorder()
    checkpointer = find_checkpointer(recorder)
    collect = recorder.enabled and recorder.metrics is not None
    store.save_manifest(plan)
    # Hash every shard spec once, here: the digests are memoized on the
    # specs, so forked workers inherit them (and spawned ones unpickle
    # them) instead of each re-hashing the whole plan.
    for shard in plan.shards:
        shard.digest
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    context = multiprocessing.get_context(method)
    options: Dict[str, Any] = {
        "batch_trials": batch_trials,
        "retries": retries,
        "backoff_s": backoff_s,
        "lease_ttl_s": lease_ttl_s,
        "poll_s": poll_s,
        "checkpoints": (
            checkpointer.spec_for_workers() if checkpointer is not None else checkpoints
        ),
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
        status = campaign_status(plan, store)
        already_done = status.done
        options["known_done"] = status.done_digests
        workers: List[Any] = []
        #: read end of each worker's report pipe -> spawn index
        homes: Dict[Any, int] = {}
        with _one_blas_thread():
            for index in range(num_workers):
                reader, writer = context.Pipe(duplex=False)
                process = context.Process(
                    target=_worker_entry,
                    args=(store, plan, f"w{index}", options, collect, writer),
                    name=f"repro-campaign-w{index}",
                )
                process.start()
                # The child now holds the only write end, so its exit
                # (with or without a report) makes the read end ready.
                writer.close()
                workers.append(process)
                homes[reader] = index
                recorder.event(
                    "campaign.worker_spawned", worker=index, pid=process.pid
                )
        logger.info(
            "launched %d workers (%s) for plan %s",
            num_workers,
            method,
            plan.digest[:12],
        )
        reports: List[Optional[WorkerReport]] = [None] * num_workers
        #: set once the store shows the campaign complete; from then on
        #: the launcher only waits for the workers' reports
        deadline: Optional[float] = None
        try:
            # Read every pipe while waiting, never after join: a snapshot
            # larger than the pipe buffer blocks its sender until read.
            while homes:
                if deadline is None:
                    status = campaign_status(plan, store, status.done_digests)
                    reporter.report(status.done_trials)
                    if status.complete:
                        deadline = time.time() + _JOIN_GRACE_S
                timeout = (
                    watch_interval_s if deadline is None else deadline - time.time()
                )
                if timeout <= 0.0:  # pragma: no cover - hung worker
                    break
                for reader in wait(list(homes), timeout=timeout):
                    index = homes.pop(reader)
                    try:
                        reports[index], snapshot = reader.recv()
                    except (EOFError, OSError):  # died without reporting
                        snapshot = None
                    reader.close()
                    if snapshot is not None:
                        recorder.metrics.merge_snapshot(snapshot)
            deadline = deadline or time.time() + _JOIN_GRACE_S
            for process in workers:
                process.join(timeout=max(0.0, deadline - time.time()))
                if process.is_alive():  # pragma: no cover - hung worker
                    logger.warning("terminating hung worker %s", process.name)
                    process.terminate()
                    process.join()
        finally:
            for reader in homes:
                reader.close()
            for process in workers:
                if process.is_alive():  # pragma: no cover - abort path
                    process.terminate()
        for index, process in enumerate(workers):
            recorder.event(
                "campaign.worker_exited", worker=index, exit_code=process.exitcode
            )
        status = campaign_status(plan, store, status.done_digests)
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
        reports=tuple(reports),
        done_digests=status.done_digests,
        already_done=already_done,
    )

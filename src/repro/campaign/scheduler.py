"""Campaign entry point: :func:`run_campaign` runs a plan to completion.

It composes the one shard executor, the lease loop
(:func:`repro.campaign.worker.run_worker`): in-process, or after N
launched lease workers (:func:`repro.campaign.distributed.launch_campaign`).
Shards with a valid artifact are skipped, which makes an interrupted
campaign resumable; failing shards are retried with jittered backoff; a
:class:`FaultInjector` can deterministically crash, delay, or corrupt
shards and abort the campaign mid-run. Because shard seeds come from
``trial_generator(base_seed, k)``, every retry/fallback path produces
bit-identical results, so a resumed campaign's aggregate equals an
uninterrupted run's byte-for-byte.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Any,
    Dict,
    FrozenSet,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.campaign.distributed import LaunchReport, launch_campaign
from repro.campaign.plan import CampaignPlan
from repro.campaign.store import ShardStore
from repro.campaign.worker import SUPERVISOR_PREFIX, run_worker
from repro.exceptions import CampaignAborted, ConfigurationError, ShardExecutionError
from repro.obs import ProgressCallback, get_logger, get_recorder

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
    * ``delay_s`` sleeps before every attempt;
    * ``abort_after`` raises :class:`CampaignAborted` once that many
      shards have been executed this run (simulates a crash/Ctrl-C).

    The injector runs entirely in the calling process, so
    :func:`run_campaign` accepts it only for in-process runs.
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
    #: digests of the shards counted done
    done_digests: FrozenSet[str] = field(default=frozenset(), repr=False)

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
    #: shards launched workers left behind that ran in-process
    fallbacks: int
    failed_digests: Tuple[str, ...] = ()


def campaign_status(
    plan: CampaignPlan, store: ShardStore, known_done: AbstractSet[str] = frozenset()
) -> CampaignStatus:
    """Classify every shard of ``plan`` against ``store``.

    Shards in ``known_done`` (digests an earlier status saw done) count
    as done without a read: artifacts are write-once, so a watcher
    re-reads only the shards it has not yet seen land.
    """
    done = pending = failed = done_trials = 0
    done_digests: Set[str] = set()
    for shard in plan.shards:
        digest = shard.digest
        verdict = "done" if digest in known_done else store.classify(shard)
        if verdict == "done":
            done += 1
            done_trials += shard.trial_count
            done_digests.add(digest)
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
        done_digests=frozenset(done_digests),
    )


def run_campaign(
    plan: CampaignPlan,
    store: ShardStore,
    max_workers: Optional[int] = None,
    batch_trials: Optional[int] = None,
    retries: int = 2,
    backoff_s: float = 0.0,
    fault_injector: Optional[FaultInjector] = None,
    progress: Optional[ProgressCallback] = None,
    checkpoints: bool = False,
) -> CampaignReport:
    """Execute every pending shard of ``plan``; skip completed ones.

    ``plan`` is a campaign plan or a cell plan (``repro cell serve``).

    ``max_workers=None`` or ``1`` runs the lease loop in this process as
    ``supervisor-<pid>``, and a value below 1 raises
    :class:`~repro.exceptions.ConfigurationError`. ``max_workers=N > 1``
    first launches N lease workers, then makes the same in-process pass:
    it finishes any shard a crashed worker left behind (counted as
    ``fallbacks``) and replays every shard's stored digest manifest into
    an active flight recorder, in plan order. That pass skips the shards
    the launch saw done without reading their artifacts again. The
    ``fault_injector`` acts in this process only, so it needs
    ``max_workers`` None or 1.
    ``batch_trials``, ``retries``, ``backoff_s`` and ``checkpoints`` are
    :func:`~repro.campaign.worker.run_worker`'s. A shard still failing
    after ``retries`` extra attempts does not stop the others;
    :class:`ShardExecutionError` is raised at the end instead.

    Shards are claimed through the store's lease protocol, so this can
    share a store with ``repro campaign worker`` processes. Safe to call
    repeatedly with the same arguments: completed shards are skipped, so
    this is also the *resume* entry point.
    """
    if max_workers is not None and max_workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {max_workers}")
    num_workers = max_workers or 1
    if num_workers > 1 and fault_injector is not None:
        raise ConfigurationError(
            "a fault injector acts in the calling process only;"
            f" it needs max_workers None or 1, got {max_workers}"
        )
    options: Dict[str, Any] = {
        "batch_trials": batch_trials,
        "retries": retries,
        "backoff_s": backoff_s,
        "checkpoints": checkpoints,
    }
    recorder = get_recorder()
    with recorder.span(
        "campaign.run",
        plan=plan.digest,
        num_shards=len(plan.shards),
        total_trials=plan.total_trials,
        workers=num_workers,
    ) as campaign_span:
        launch: Optional[LaunchReport] = None
        if num_workers > 1:
            launch = launch_campaign(
                plan, store, num_workers=num_workers, progress=progress, **options
            )
        local = run_worker(
            plan,
            store,
            worker_id=f"{SUPERVISOR_PREFIX}{os.getpid()}",
            fault_injector=fault_injector,
            progress=progress if launch is None or not launch.complete else None,
            known_done=launch.done_digests if launch is not None else frozenset(),
            **options,
        )
        remote = [r for r in launch.reports if r is not None] if launch else []
        remote_executed = sum(r.executed for r in remote)
        fallbacks = local.executed if launch is not None else 0
        if fallbacks:
            logger.warning(
                "%d shard(s) left by launched workers ran in-process", fallbacks
            )
            recorder.increment("campaign.fallbacks", fallbacks)
        report = CampaignReport(
            executed=local.executed + remote_executed,
            skipped=local.skipped - remote_executed,
            retries=local.retries + sum(r.retries for r in remote),
            fallbacks=fallbacks,
            failed_digests=local.failed_digests,
        )
        campaign_span.annotate(
            executed=report.executed,
            skipped=report.skipped,
            retries=report.retries,
            fallbacks=report.fallbacks,
            failed=len(report.failed_digests),
            takeovers=local.takeovers + sum(r.takeovers for r in remote),
        )
    if report.failed_digests:
        raise ShardExecutionError(
            f"{len(report.failed_digests)} shard(s) failed after {retries} retries: "
            + ", ".join(digest[:12] for digest in report.failed_digests)
        )
    return report

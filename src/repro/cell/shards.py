"""Cell runs as content-addressed shards over the campaign store.

A cell run decomposes into UE-range shards: shard ``i`` executes UEs
``[ue_start, ue_start + ue_count)`` of the (globally computed, fully
deterministic) arrival schedule and airtime allocation. Because UE ``k``'s
streams depend only on ``(base_seed, k)`` and its timing only on the
global schedule, shard results are independent of the sharding — any
partition of the UE range, executed in any order by any number of
workers, reassembles into the same per-UE records.

Shards flow through the same :class:`~repro.campaign.store.ShardStore`
as campaign trials (satellite integration): results are content-addressed
artifacts keyed by the shard's config digest, so re-serving an identical
config resumes from completed shards, and the store's gc keeps every
shard a saved cell-plan manifest references (cell plan payloads carry
explicit per-shard digests for exactly that reason).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cell.config import CellConfig
from repro.cell.engine import execute_ues
from repro.cell.metrics import UERecord, merge_records
from repro.cell.scheduler import CellSchedule, build_schedule
from repro.campaign.lease import local_hostname
from repro.exceptions import ConfigurationError
from repro.obs import ProgressCallback, ProgressReporter, get_logger
from repro.sim.scenario import Scenario
from repro.utils.serialization import memoized_digest

__all__ = [
    "CELL_SHARD_KIND",
    "CELL_PLAN_SCHEMA",
    "DEFAULT_SHARD_UES",
    "CellShard",
    "CellPlan",
    "plan_cell",
    "execute_shard",
    "run_cell_plan",
]

logger = get_logger("cell.shards")

#: Artifact kind of one executed cell shard in the store.
CELL_SHARD_KIND = "cell-shard-v1"

#: Manifest schema of a saved cell plan.
CELL_PLAN_SCHEMA = "repro.cell.plan/1"

#: Default UEs per shard: big enough to amortize the batched channel
#: blocks, small enough for useful resume granularity.
DEFAULT_SHARD_UES = 64


@dataclass(frozen=True)
class CellShard:
    """One UE-range unit of a cell run (content-addressed)."""

    config: CellConfig
    ue_start: int
    ue_count: int

    def __post_init__(self) -> None:
        if self.ue_start < 0:
            raise ConfigurationError(f"ue_start must be >= 0, got {self.ue_start}")
        if self.ue_count < 1:
            raise ConfigurationError(f"ue_count must be >= 1, got {self.ue_count}")

    def spec_payload(self) -> dict:
        """The canonical spec the digest is computed over."""
        return {
            "schema": CELL_PLAN_SCHEMA,
            "config": self.config.to_dict(),
            "ue_start": self.ue_start,
            "ue_count": self.ue_count,
        }

    @property
    def digest(self) -> str:
        """Content address of this shard, computed once per instance."""
        return memoized_digest(self, "_digest", self.spec_payload)


@dataclass(frozen=True)
class CellPlan:
    """A cell config partitioned into UE-range shards."""

    config: CellConfig
    shards: Tuple[CellShard, ...]

    @property
    def num_ues(self) -> int:
        return sum(shard.ue_count for shard in self.shards)

    @property
    def digest(self) -> str:
        """Content address of the plan (the manifest key), computed once."""
        return memoized_digest(self, "_digest", self.payload)

    @property
    def config_digest(self) -> str:
        """Digest of the config alone, independent of the shard partition.

        The deterministic summary artifact is keyed by this, not by
        :attr:`digest`: shard size is an execution knob (like campaign
        ``batch_trials``), so two serves of one config must emit the same
        summary bytes no matter how the UE range was cut. Computed once
        per instance, like :attr:`digest`.
        """
        return memoized_digest(
            self,
            "_config_digest",
            lambda: {"schema": CELL_PLAN_SCHEMA, "config": self.config.to_dict()},
        )

    def payload(self) -> dict:
        """Manifest payload; ``shards[*].digest`` keeps gc retention."""
        return {
            "schema": CELL_PLAN_SCHEMA,
            "config": self.config.to_dict(),
            "shards": [
                {
                    "ue_start": shard.ue_start,
                    "ue_count": shard.ue_count,
                    "digest": shard.digest,
                }
                for shard in self.shards
            ],
        }


def plan_cell(config: CellConfig, shard_ues: int = DEFAULT_SHARD_UES) -> CellPlan:
    """Partition a config's admitted UEs into contiguous shards.

    The partition covers the UEs the arrival schedule actually admits
    (``duration_s`` may reject the tail), so the plan digest pins the
    run's real extent.
    """
    if shard_ues < 1:
        raise ConfigurationError(f"shard_ues must be >= 1, got {shard_ues}")
    schedule = build_schedule(config)
    admitted = len(schedule.entries)
    if admitted == 0:
        raise ConfigurationError(
            "arrival window admits no UEs; raise duration_s or arrival_rate_hz"
        )
    shards = tuple(
        CellShard(
            config=config,
            ue_start=start,
            ue_count=min(shard_ues, admitted - start),
        )
        for start in range(0, admitted, shard_ues)
    )
    return CellPlan(config=config, shards=shards)


def execute_shard(
    shard: CellShard,
    batch_users: Optional[int] = None,
    schedule: Optional[CellSchedule] = None,
    scenario: Optional[Scenario] = None,
) -> List[UERecord]:
    """Run one shard's UEs and return their records, in UE order.

    The global schedule is recomputed from the config when not passed in
    (pure arithmetic — identical in every process), so a shard is fully
    self-describing: workers need nothing beyond the spec payload.
    """
    if schedule is None:
        schedule = build_schedule(shard.config)
    entries = schedule.entries[shard.ue_start : shard.ue_start + shard.ue_count]
    if len(entries) != shard.ue_count:
        raise ConfigurationError(
            f"shard [{shard.ue_start}, {shard.ue_start + shard.ue_count}) exceeds"
            f" the {len(schedule.entries)}-UE schedule"
        )
    if scenario is None:
        scenario = Scenario(shard.config.scenario)
    outcomes = execute_ues(scenario, shard.config, entries, batch_users=batch_users)
    return merge_records(entries, outcomes)


def _shard_result_payload(shard: CellShard, records: Sequence[UERecord]) -> dict:
    return {
        "kind": CELL_SHARD_KIND,
        "digest": shard.digest,
        "spec": shard.spec_payload(),
        "result": {"records": [record.to_payload() for record in records]},
    }


def _records_from_payload(payload: dict) -> List[UERecord]:
    return [
        UERecord.from_payload(row) for row in payload["result"]["records"]
    ]


def _shard_task(
    config_payload: dict,
    ue_start: int,
    ue_count: int,
    batch_users: Optional[int],
) -> List[dict]:
    """Worker-process entry point: one shard, payloads out (picklable)."""
    config = CellConfig.from_dict(config_payload)
    shard = CellShard(config=config, ue_start=ue_start, ue_count=ue_count)
    records = execute_shard(shard, batch_users=batch_users)
    return [record.to_payload() for record in records]


def run_cell_plan(
    plan: CellPlan,
    store=None,
    batch_users: Optional[int] = None,
    workers: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    on_shard: Optional[Callable[[CellShard, List[UERecord], bool], None]] = None,
) -> List[UERecord]:
    """Execute a plan's shards; records come back in global UE order.

    ``store`` (a :class:`~repro.campaign.store.ShardStore`), when given,
    makes execution resumable: completed shards are fetched by digest,
    fresh results are published as artifacts, and liveness heartbeats are
    written around each shard. ``workers`` fans shards across a process
    pool (each worker recomputes the deterministic schedule); ``on_shard``
    observes every shard completion with ``(shard, records, cached)``.
    """
    if workers is not None and workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    reporter = ProgressReporter(len(plan.shards), progress, label="shards")
    results: Dict[int, List[UERecord]] = {}
    pending: List[Tuple[int, CellShard]] = []
    plan_digest = plan.digest

    for index, shard in enumerate(plan.shards):
        cached = None
        if store is not None:
            payload = store.get_artifact(shard.digest, CELL_SHARD_KIND)
            if payload is not None:
                cached = _records_from_payload(payload)
        if cached is not None:
            logger.debug("shard %s: cached (%d records)", shard.digest, len(cached))
            results[index] = cached
            if on_shard is not None:
                on_shard(shard, cached, True)
            reporter.update()
        else:
            pending.append((index, shard))

    def _finish(index: int, shard: CellShard, records: List[UERecord]) -> None:
        if store is not None:
            store.put_artifact(_shard_result_payload(shard, records))
            store.write_heartbeat(
                plan_digest,
                shard.digest,
                "done",
                shard_index=index,
                trial_count=len(records),
                host=local_hostname(),
            )
        results[index] = records
        if on_shard is not None:
            on_shard(shard, records, False)
        reporter.update()

    if pending and workers:
        config_payload = plan.config.to_dict()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                (
                    index,
                    shard,
                    pool.submit(
                        _shard_task,
                        config_payload,
                        shard.ue_start,
                        shard.ue_count,
                        batch_users,
                    ),
                )
                for index, shard in pending
            ]
            for index, shard, future in futures:
                _finish(
                    index,
                    shard,
                    [UERecord.from_payload(row) for row in future.result()],
                )
    elif pending:
        schedule = build_schedule(plan.config)
        scenario = Scenario(plan.config.scenario)
        for index, shard in pending:
            if store is not None:
                store.write_heartbeat(
                    plan_digest,
                    shard.digest,
                    "running",
                    shard_index=index,
                    host=local_hostname(),
                )
            records = execute_shard(
                shard, batch_users=batch_users, schedule=schedule, scenario=scenario
            )
            _finish(index, shard, records)

    ordered: List[UERecord] = []
    for index in range(len(plan.shards)):
        ordered.extend(results[index])
    return ordered

"""Cell runs as content-addressed shards over the campaign store.

A cell run decomposes into UE-range shards: shard ``i`` executes UEs
``[ue_start, ue_start + ue_count)`` of the (globally computed, fully
deterministic) arrival schedule and airtime allocation. Because UE ``k``'s
streams depend only on ``(base_seed, k)`` and its timing only on the
global schedule, shard results are independent of the sharding — any
partition of the UE range, executed in any order by any number of
workers, reassembles into the same per-UE records.

A :class:`CellShard` is the second shard kind of the campaign lease loop
(:func:`repro.campaign.worker.run_worker`), next to the campaign
:class:`~repro.campaign.plan.ShardSpec`. A UE is its own trial, so a
shard's ``trial_start``/``trial_count`` are its UE range and a plan's
``total_trials`` is its UE count; the shard runs itself
(:meth:`CellShard.execute`) and encodes and checks its own artifact.
Cell plan manifests carry explicit per-shard digests, so the store's gc
keeps every shard a saved cell plan references.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Sequence, Tuple

from repro.cell.config import CellConfig
from repro.cell.engine import execute_ues
from repro.cell.metrics import UERecord, merge_records
from repro.cell.scheduler import CellSchedule, build_schedule
from repro.exceptions import ConfigurationError
from repro.sim.config import ScenarioConfig
from repro.sim.parallel import _scenario_for
from repro.utils.serialization import canonical_form, canonical_json, memoized_digest

__all__ = [
    "CELL_SHARD_KIND",
    "CELL_PLAN_SCHEMA",
    "DEFAULT_SHARD_UES",
    "CellShard",
    "CellPlan",
    "plan_cell",
    "plan_cell_from_payload",
]

#: Artifact kind of one executed cell shard in the store.
CELL_SHARD_KIND = "cell-shard-v1"

#: Manifest schema of a saved cell plan.
CELL_PLAN_SCHEMA = "repro.cell.plan/1"

#: Default UEs per shard: big enough to amortize the batched channel
#: blocks, small enough for useful resume granularity.
DEFAULT_SHARD_UES = 64


@functools.lru_cache(maxsize=8)
def _schedule_for(config: CellConfig) -> CellSchedule:
    """Per-process schedule cache: a serve builds it once for planning and
    summarizing, and a lease worker once, not per shard."""
    return build_schedule(config)


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

    #: Store artifact kind, checked on every read.
    ARTIFACT_KIND = CELL_SHARD_KIND

    # The lease loop's names for a shard: a UE is its own trial.
    @property
    def trial_start(self) -> int:
        return self.ue_start

    @property
    def trial_count(self) -> int:
        return self.ue_count

    @property
    def search_rate(self) -> float:
        return self.config.search_rate

    @property
    def scenario_config(self) -> ScenarioConfig:
        return self.config.scenario

    def spec_head(self) -> dict:
        """:meth:`spec_payload` without its ``config`` block."""
        return {
            "schema": CELL_PLAN_SCHEMA,
            "ue_start": self.ue_start,
            "ue_count": self.ue_count,
        }

    def spec_payload(self) -> dict:
        """The canonical spec the digest is computed over."""
        return {**self.spec_head(), "config": self.config.to_dict()}

    @property
    def digest(self) -> str:
        """Content address of this shard, computed once per instance."""
        return memoized_digest(
            self, "_digest", lambda: _canonical(self.config, self.spec_head())
        )

    def execute(self, batch_trials: Optional[int] = None) -> List[UERecord]:
        """Run this shard's UEs (``batch_trials`` per block); records in UE order.

        The global schedule and the scenario are this process's copies
        for the config (the schedule is pure arithmetic — identical in
        every process), so a shard is fully self-describing: workers need
        nothing beyond the spec payload.
        """
        schedule = _schedule_for(self.config)
        entries = schedule.entries[self.ue_start : self.ue_start + self.ue_count]
        if len(entries) != self.ue_count:
            raise ConfigurationError(
                f"shard [{self.ue_start}, {self.ue_start + self.ue_count}) exceeds"
                f" the {len(schedule.entries)}-UE schedule"
            )
        outcomes = execute_ues(
            _scenario_for(self.config.scenario),
            self.config,
            entries,
            batch_users=batch_trials,
        )
        return merge_records(entries, outcomes)

    def artifact_payload(self, records: Sequence[UERecord]) -> dict:
        """The store artifact of this shard's executed records."""
        return {
            "kind": CELL_SHARD_KIND,
            "digest": self.digest,
            "spec": self.spec_payload(),
            "result": {"records": [record.to_payload() for record in records]},
        }

    def result_from_artifact(self, payload: dict) -> Optional[List[UERecord]]:
        """The records a stored artifact holds, or ``None`` when mis-shaped."""
        rows = payload["result"].get("records")
        if not isinstance(rows, list) or len(rows) != self.ue_count:
            return None
        try:
            return [UERecord.from_payload(row) for row in rows]
        except (KeyError, TypeError, ValueError):
            return None


@dataclass(frozen=True)
class CellPlan:
    """A cell config partitioned into UE-range shards."""

    config: CellConfig
    shards: Tuple[CellShard, ...]

    @property
    def num_ues(self) -> int:
        return sum(shard.ue_count for shard in self.shards)

    #: The lease loop's unit total: a UE is its own trial.
    total_trials = num_ues

    @property
    def digest(self) -> str:
        """Content address of the plan (the manifest key), computed once."""
        return memoized_digest(
            self,
            "_digest",
            lambda: _canonical(
                self.config,
                {"schema": CELL_PLAN_SCHEMA, "shards": self._shard_entries()},
            ),
        )

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
            lambda: _canonical(self.config, {"schema": CELL_PLAN_SCHEMA}),
        )

    def _shard_entries(self) -> List[dict]:
        return [
            {
                "ue_start": shard.ue_start,
                "ue_count": shard.ue_count,
                "digest": shard.digest,
            }
            for shard in self.shards
        ]

    def payload(self) -> dict:
        """Manifest payload; ``shards[*].digest`` keeps gc retention."""
        return {
            "schema": CELL_PLAN_SCHEMA,
            "config": self.config.to_dict(),
            "shards": self._shard_entries(),
        }


def _canonical(config: CellConfig, fields: dict) -> str:
    """Canonical text of ``{**fields, "config": config}``; the config's
    text comes from the per-value cache."""
    return canonical_json(fields, {"config": canonical_form(config)[1]})


def plan_cell(config: CellConfig, shard_ues: int = DEFAULT_SHARD_UES) -> CellPlan:
    """Partition a config's admitted UEs into contiguous shards.

    The partition covers the UEs the arrival schedule actually admits
    (``duration_s`` may reject the tail), so the plan digest pins the
    run's real extent.
    """
    if shard_ues < 1:
        raise ConfigurationError(f"shard_ues must be >= 1, got {shard_ues}")
    admitted = len(_schedule_for(config).entries)
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


def plan_cell_from_payload(payload: Mapping[str, Any]) -> CellPlan:
    """Rebuild a cell plan from its :meth:`CellPlan.payload` manifest.

    The config comes back through :meth:`CellConfig.from_dict` and the
    partition through :func:`plan_cell` at the first shard's size. The
    result is the recorded plan only when its :attr:`~CellPlan.digest`
    equals the manifest's key, which the caller checks.
    """
    if payload.get("schema") != CELL_PLAN_SCHEMA:
        raise ConfigurationError(
            f"unsupported cell plan schema {payload.get('schema')!r}"
        )
    shards = payload.get("shards")
    if not isinstance(shards, list) or not shards:
        raise ConfigurationError("cell plan manifest lists no shards")
    return plan_cell(
        CellConfig.from_dict(payload["config"]), shard_ues=int(shards[0]["ue_count"])
    )

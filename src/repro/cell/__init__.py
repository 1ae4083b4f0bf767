"""Cell-scale alignment-as-a-service workload.

Models a BS serving hundreds–thousands of UEs that arrive by a seeded
Poisson process and contend for limited per-frame training airtime while
each runs one beam alignment against the shared codebook. The subsystem
layers:

- :mod:`repro.cell.config` — the frozen, digestable run specification;
- :mod:`repro.cell.arrivals` — the namespaced Poisson arrival stream;
- :mod:`repro.cell.scheduler` — FIFO airtime allocation over MAC frames;
- :mod:`repro.cell.engine` — per-UE alignment with contention-driven
  interference, in stacked UE blocks of any size (bit-identical);
- :mod:`repro.cell.metrics` — per-UE records and the distribution
  roll-up (latency, queue wait, SNR loss, overhead fraction);
- :mod:`repro.cell.shards` — UE-range shards, a shard kind of the
  campaign lease loop (leases, takeover, resume, heartbeats);
- :mod:`repro.cell.service` — ``repro cell serve``: live OpenMetrics
  plus a byte-stable deterministic summary artifact.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_namespace

if TYPE_CHECKING:
    from repro.cell.arrivals import (
        ARRIVAL_STREAM,
        CELL_NAMESPACE,
        Arrival,
        ArrivalSchedule,
        arrival_schedule,
        cell_root,
        poisson_arrivals,
    )
    from repro.cell.config import DEFAULT_CELL_SEED, CellConfig
    from repro.cell.engine import UE_STREAM_LABELS, UEOutcome, execute_ues
    from repro.cell.metrics import UERecord, merge_records, summarize_records
    from repro.cell.scheduler import (
        CellSchedule,
        UESchedule,
        build_schedule,
        schedule_airtime,
    )
    from repro.cell.service import (
        CELL_SUMMARY_KIND,
        CellServeReport,
        render_cell_report,
        serve_cell,
        summary_payload,
    )
    from repro.cell.shards import (
        CELL_PLAN_SCHEMA,
        CELL_SHARD_KIND,
        DEFAULT_SHARD_UES,
        CellPlan,
        CellShard,
        plan_cell,
        plan_cell_from_payload,
    )

__all__ = [
    "ARRIVAL_STREAM",
    "CELL_NAMESPACE",
    "CELL_PLAN_SCHEMA",
    "CELL_SHARD_KIND",
    "CELL_SUMMARY_KIND",
    "DEFAULT_CELL_SEED",
    "DEFAULT_SHARD_UES",
    "Arrival",
    "ArrivalSchedule",
    "CellConfig",
    "CellPlan",
    "CellSchedule",
    "CellServeReport",
    "CellShard",
    "UEOutcome",
    "UERecord",
    "UESchedule",
    "UE_STREAM_LABELS",
    "arrival_schedule",
    "build_schedule",
    "cell_root",
    "execute_ues",
    "merge_records",
    "plan_cell",
    "plan_cell_from_payload",
    "poisson_arrivals",
    "render_cell_report",
    "schedule_airtime",
    "serve_cell",
    "summarize_records",
    "summary_payload",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.cell.arrivals": (
            "ARRIVAL_STREAM",
            "CELL_NAMESPACE",
            "Arrival",
            "ArrivalSchedule",
            "arrival_schedule",
            "cell_root",
            "poisson_arrivals",
        ),
        "repro.cell.config": ("DEFAULT_CELL_SEED", "CellConfig"),
        "repro.cell.engine": (
            "UE_STREAM_LABELS",
            "UEOutcome",
            "execute_ues",
        ),
        "repro.cell.metrics": ("UERecord", "merge_records", "summarize_records"),
        "repro.cell.scheduler": (
            "CellSchedule",
            "UESchedule",
            "build_schedule",
            "schedule_airtime",
        ),
        "repro.cell.service": (
            "CELL_SUMMARY_KIND",
            "CellServeReport",
            "render_cell_report",
            "serve_cell",
            "summary_payload",
        ),
        "repro.cell.shards": (
            "CELL_PLAN_SCHEMA",
            "CELL_SHARD_KIND",
            "DEFAULT_SHARD_UES",
            "CellPlan",
            "CellShard",
            "plan_cell",
            "plan_cell_from_payload",
        ),
    },
)

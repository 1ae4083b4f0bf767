"""Alignment-as-a-service: the cell load generator behind ``repro cell serve``.

:func:`serve_cell` drives one full cell run — arrivals, airtime
scheduling, sharded per-UE execution — while publishing **live**
observability: an OpenMetrics exposition file rewritten atomically after
every shard (scrape it while the run is hot) and, through the shard
store, the same liveness heartbeats campaign watchers consume. At the
end it emits a **deterministic summary artifact**: the canonical JSON of
the config, its digest, per-UE records, and metric roll-up, byte-stable
across repeated invocations, across serial/batched execution, and across
any shard size (pinned by ``tests/test_cell_service.py`` and the
``cell-smoke`` CI job).

The live surface (wall-clock timers, scrape files) and the deterministic
surface (the summary artifact) are kept strictly apart: nothing
time-dependent enters the summary payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

from repro.cell.config import CellConfig
from repro.cell.engine import check_batch_users
from repro.cell.metrics import UERecord, summarize_records
from repro.cell.scheduler import CellSchedule, build_schedule
from repro.cell.shards import (
    DEFAULT_SHARD_UES,
    CellPlan,
    plan_cell,
    run_cell_plan,
)
from repro.obs import MetricsRegistry, ProgressCallback, get_logger
from repro.obs.openmetrics import write_openmetrics
from repro.utils.serialization import dump

__all__ = [
    "CELL_SUMMARY_KIND",
    "CellServeReport",
    "serve_cell",
    "summary_payload",
    "render_cell_report",
]

logger = get_logger("cell.service")

#: Artifact kind of the deterministic serve summary.
CELL_SUMMARY_KIND = "cell-summary-v1"


@dataclass(frozen=True)
class CellServeReport:
    """Everything one serve run produced."""

    config: CellConfig
    plan: CellPlan
    schedule: CellSchedule
    records: List[UERecord]
    summary: dict
    cached_shards: int
    summary_path: Optional[Path] = None
    openmetrics_path: Optional[Path] = None


def summary_payload(report: CellServeReport) -> dict:
    """The deterministic summary artifact (byte-stable through ``dump``).

    Contains only seeded-outcome data: the config, its digest, the
    per-UE records, and the metric roll-up. Cache state, the shard
    partition, wall-clock timings, and file paths deliberately stay out —
    shard size is an execution knob, so summaries stay byte-identical
    across any ``shard_ues``.
    """
    return {
        "kind": CELL_SUMMARY_KIND,
        "digest": report.plan.config_digest,
        "config": report.config.to_dict(),
        "summary": report.summary,
        "records": [record.to_payload() for record in report.records],
    }


def _seed_registry(
    registry: MetricsRegistry, config: CellConfig, plan: CellPlan
) -> None:
    registry.set_gauge("cell.users", float(plan.num_ues))
    registry.set_gauge("cell.arrival_rate_hz", config.arrival_rate_hz)
    registry.set_gauge("cell.shards_total", float(len(plan.shards)))
    registry.set_gauge("cell.probe_budget_per_frame", float(config.probe_budget_per_frame))


def serve_cell(
    config: CellConfig,
    store=None,
    batch_users: Optional[int] = None,
    workers: Optional[int] = None,
    shard_ues: int = DEFAULT_SHARD_UES,
    openmetrics_path: Optional[Union[str, Path]] = None,
    summary_path: Optional[Union[str, Path]] = None,
    progress: Optional[ProgressCallback] = None,
    registry: Optional[MetricsRegistry] = None,
) -> CellServeReport:
    """Run the cell workload end to end, publishing live metrics.

    ``openmetrics_path``, when given, is atomically rewritten before the
    first shard and after every completed shard — a scraper polling the
    file watches UEs drain in real time. ``store`` makes the run
    resumable (per-shard artifacts + heartbeats); ``summary_path``
    receives the deterministic summary artifact.
    """
    check_batch_users(batch_users)
    registry = registry if registry is not None else MetricsRegistry()
    plan = plan_cell(config, shard_ues=shard_ues)
    schedule = build_schedule(config)
    _seed_registry(registry, config, plan)
    registry.set_gauge("cell.frames", float(schedule.num_frames))
    metrics_target = Path(openmetrics_path) if openmetrics_path else None
    if metrics_target is not None:
        write_openmetrics(registry, metrics_target)

    cached_count = 0

    def _on_shard(shard, records, cached):
        nonlocal cached_count
        registry.increment("cell.shards_done")
        if cached:
            cached_count += 1
            registry.increment("cell.shards_cached")
        registry.increment("cell.ues_done", len(records))
        registry.increment(
            "cell.measurements", sum(r.measurements_used for r in records)
        )
        registry.increment(
            "cell.interference_hits", sum(r.interference_hits for r in records)
        )
        if metrics_target is not None:
            write_openmetrics(registry, metrics_target)

    logger.info(
        "serve: %d UEs in %d shards (plan %s)",
        plan.num_ues,
        len(plan.shards),
        plan.digest,
    )
    with registry.timer("cell.serve"):
        records = run_cell_plan(
            plan,
            store=store,
            batch_users=batch_users,
            workers=workers,
            progress=progress,
            on_shard=_on_shard,
        )
    summary = summarize_records(records, schedule)
    registry.set_gauge("cell.p99_latency_ms", summary["distributions"]["latency_ms"]["p99"])
    registry.set_gauge("cell.p99_snr_loss_db", summary["distributions"]["snr_loss_db"]["p99"])
    if metrics_target is not None:
        write_openmetrics(registry, metrics_target)

    report = CellServeReport(
        config=config,
        plan=plan,
        schedule=schedule,
        records=records,
        summary=summary,
        cached_shards=cached_count,
        summary_path=Path(summary_path) if summary_path else None,
        openmetrics_path=metrics_target,
    )
    if store is not None:
        store.save_manifest(plan)
    if report.summary_path is not None:
        dump(summary_payload(report), report.summary_path)
    return report


def render_cell_report(report: CellServeReport) -> str:
    """Human-readable serve summary for the CLI."""
    summary = report.summary
    lines = [
        f"cell plan {report.plan.digest}",
        f"  UEs: {summary['num_ues']}  shards: {len(report.plan.shards)}"
        f" (cached {report.cached_shards})  frames: {summary['num_frames']}",
        f"  scheme: {report.config.scheme.name}"
        f"  demand/UE: {report.config.measurements_per_ue()}"
        f"  budget/frame: {report.config.probe_budget_per_frame}",
        f"  span: {summary['span_ms']:.1f} ms"
        f"  throughput: {summary['throughput_ues_per_s']:.1f} UE/s",
        f"  interference: {summary['interference']['total_hits']} hits across"
        f" {summary['interference']['exposed_ues']} exposed UEs",
        "  metric            p50        p90        p99",
    ]
    rows = (
        ("latency_ms", "latency (ms)"),
        ("queue_wait_ms", "queue wait (ms)"),
        ("snr_loss_db", "SNR loss (dB)"),
        ("overhead_fraction", "overhead frac"),
    )
    for key, label in rows:
        dist = summary["distributions"][key]
        lines.append(
            f"  {label:<15} {dist['p50']:>8.3f}   {dist['p90']:>8.3f}   {dist['p99']:>8.3f}"
        )
    return "\n".join(lines)

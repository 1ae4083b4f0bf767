"""Per-UE records and cell-level metric roll-ups.

A :class:`UERecord` joins a UE's scheduled airtime (queue wait, latency,
overhead — from :mod:`repro.cell.scheduler`) with its alignment outcome
(SNR loss, interference exposure — from :mod:`repro.cell.engine`) into
one flat, JSON-round-trippable row. :func:`summarize_records` rolls the
rows up into the cell's metric surface: nearest-rank percentiles of the
per-UE distributions the paper's overhead/accuracy trade-off motivates
(alignment latency, SNR loss, queue wait, airtime-overhead fraction),
plus cell throughput and interference totals.

Every float survives a JSON round trip bit-exactly (``repr``-based
serialization in :mod:`repro.utils.serialization`), which is what makes
the serve summary artifact byte-stable across runs and execution modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.cell.engine import UEOutcome
from repro.cell.scheduler import CellSchedule, UESchedule
from repro.exceptions import ValidationError
from repro.obs.metrics import percentile

__all__ = [
    "UERecord",
    "merge_records",
    "summarize_records",
    "PERCENTILE_LABELS",
]

#: The reported percentile grid (nearest-rank, labels used in payloads).
PERCENTILE_LABELS = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99))


@dataclass(frozen=True)
class UERecord:
    """One UE's complete cell-run row: airtime + alignment outcome."""

    ue_id: int
    arrival_us: float
    queue_wait_us: float
    latency_us: float
    airtime_us: float
    overhead_fraction: float
    frames_used: int
    grants: int
    peak_concurrency: int
    interference_probability: float
    interference_hits: int
    measurements_used: int
    loss_db: float
    mean_snr: float
    optimal_snr: float
    selected_tx: int
    selected_rx: int

    def to_payload(self) -> dict:
        """Flat JSON mapping (round-trips through :meth:`from_payload`).

        The fields are scalars, so a shallow copy is the whole mapping
        (``asdict``'s recursive deep copy cost more than the shard's
        JSON encoding).
        """
        return dict(vars(self))

    @classmethod
    def from_payload(cls, payload: dict) -> "UERecord":
        return cls(**payload)


def merge_records(
    entries: Sequence[UESchedule],
    outcomes: Sequence[UEOutcome],
) -> List[UERecord]:
    """Join schedule entries with alignment outcomes, by UE id."""
    if len(entries) != len(outcomes):
        raise ValidationError(
            f"{len(entries)} schedule entries but {len(outcomes)} outcomes"
        )
    records: List[UERecord] = []
    for entry, outcome in zip(entries, outcomes):
        if entry.ue_id != outcome.ue_id:
            raise ValidationError(
                f"schedule entry {entry.ue_id} paired with outcome {outcome.ue_id}"
            )
        records.append(
            UERecord(
                ue_id=entry.ue_id,
                arrival_us=entry.arrival_us,
                queue_wait_us=entry.queue_wait_us,
                latency_us=entry.latency_us,
                airtime_us=entry.airtime_us,
                overhead_fraction=entry.overhead_fraction,
                frames_used=entry.frames_used,
                grants=entry.grants,
                peak_concurrency=entry.peak_concurrency,
                interference_probability=outcome.interference_probability,
                interference_hits=outcome.interference_hits,
                measurements_used=outcome.measurements_used,
                loss_db=outcome.loss_db,
                mean_snr=outcome.mean_snr,
                optimal_snr=outcome.optimal_snr,
                selected_tx=outcome.selected_tx,
                selected_rx=outcome.selected_rx,
            )
        )
    return records


def _distribution(samples: Sequence[float]) -> Dict[str, float]:
    """min/percentiles/max/mean of one per-UE metric."""
    values = list(samples)
    stats: Dict[str, float] = {
        "min": percentile(values, 0.0),
        "max": percentile(values, 1.0),
        "mean": float(sum(values) / len(values)) if values else float("nan"),
    }
    for label, fraction in PERCENTILE_LABELS:
        stats[label] = percentile(values, fraction)
    return stats


def summarize_records(
    records: Sequence[UERecord],
    schedule: CellSchedule,
) -> dict:
    """The cell's metric surface over one run's per-UE records.

    Latency and queue wait are reported in milliseconds (frame timing is
    microseconds; cell-scale waits are not), SNR loss in dB, overhead as
    a fraction of the coherence time.
    """
    if not records:
        raise ValidationError("summarize_records needs at least one record")
    span_us = max(record.arrival_us + record.latency_us for record in records)
    return {
        "num_ues": len(records),
        "num_frames": schedule.num_frames,
        "span_ms": span_us / 1e3,
        "throughput_ues_per_s": len(records) / (span_us / 1e6),
        "total_measurements": sum(r.measurements_used for r in records),
        "interference": {
            "total_hits": sum(r.interference_hits for r in records),
            "max_probability": max(r.interference_probability for r in records),
            "exposed_ues": sum(
                1 for r in records if r.interference_probability > 0.0
            ),
        },
        "frame_load": {
            "max_grants": max(schedule.frame_load) if schedule.frame_load else 0,
            "max_users": max(schedule.frame_users) if schedule.frame_users else 0,
        },
        "distributions": {
            "latency_ms": _distribution([r.latency_us / 1e3 for r in records]),
            "queue_wait_ms": _distribution([r.queue_wait_us / 1e3 for r in records]),
            "snr_loss_db": _distribution([r.loss_db for r in records]),
            "overhead_fraction": _distribution(
                [r.overhead_fraction for r in records]
            ),
        },
    }

"""In-memory metrics: monotonic timers, counters, and gauges.

A :class:`MetricsRegistry` is the aggregation half of the observability
layer: recorders feed it span durations and counter increments, and
callers read back an order-independent :meth:`~MetricsRegistry.summary`
(count / total / mean / p50 / p95 per timer). Registries are cheap plain
containers, picklable through :meth:`~MetricsRegistry.snapshot`, and
mergeable across process boundaries — a campaign launcher folds each
launched worker's snapshot into its own registry.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence

__all__ = ["MetricsRegistry", "timer_stats", "percentile"]


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (``fraction`` in [0, 1]).

    ``fraction`` 0.0 and 1.0 are exactly the minimum and maximum, a
    single-sample list returns that sample for every fraction, and an
    empty sample list returns NaN (the caller decides what "no data"
    means; :func:`timer_stats` maps it to 0.0). A fraction outside
    [0, 1] is a programming error and raises ``ValueError`` instead of
    being silently clamped.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"percentile fraction must be in [0, 1], got {fraction}")
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
    return float(ordered[rank])


def timer_stats(samples: Sequence[float]) -> Dict[str, float]:
    """Aggregate one timer's duration samples into summary statistics.

    Always NaN-free: an empty timer reports zero for every statistic, so
    downstream renderers and JSON consumers never see NaN.
    """
    count = len(samples)
    total = float(sum(samples))
    return {
        "count": count,
        "total_s": total,
        "mean_s": total / count if count else 0.0,
        "p50_s": percentile(samples, 0.50) if count else 0.0,
        "p95_s": percentile(samples, 0.95) if count else 0.0,
        "min_s": float(min(samples)) if count else 0.0,
        "max_s": float(max(samples)) if count else 0.0,
    }


class MetricsRegistry:
    """Monotonic timers, counters, and gauges with snapshot/merge support.

    Not thread-safe by design: each process (and each launched campaign
    worker) owns its registry, and cross-process aggregation goes
    through :meth:`snapshot` / :meth:`merge_snapshot`.
    """

    def __init__(self) -> None:
        self._timers: Dict[str, List[float]] = {}
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}

    # -- recording -----------------------------------------------------

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time a ``with`` block into the named timer (perf_counter)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record_duration(name, time.perf_counter() - start)

    def record_duration(self, name: str, seconds: float) -> None:
        """Append one duration sample (seconds) to the named timer."""
        self._timers.setdefault(name, []).append(float(seconds))

    def increment(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the named monotonic counter."""
        self._counters[name] = self._counters.get(name, 0.0) + float(value)

    def set_gauge(self, name: str, value: float) -> None:
        """Set the named gauge to its latest observed value."""
        self._gauges[name] = float(value)

    # -- reading -------------------------------------------------------

    @property
    def timers(self) -> Mapping[str, Sequence[float]]:
        return self._timers

    @property
    def counters(self) -> Mapping[str, float]:
        return self._counters

    @property
    def gauges(self) -> Mapping[str, float]:
        return self._gauges

    def counter(self, name: str) -> float:
        """Current value of a counter (0 if never incremented)."""
        return self._counters.get(name, 0.0)

    def summary(self) -> Dict[str, Any]:
        """Aggregated view: per-timer stats plus raw counters and gauges."""
        return {
            "timers": {
                name: timer_stats(samples)
                for name, samples in sorted(self._timers.items())
            },
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
        }

    # -- snapshot / merge ----------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Picklable raw contents, suitable for crossing process boundaries."""
        return {
            "timers": {name: list(samples) for name, samples in self._timers.items()},
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
        }

    def merge_snapshot(self, snapshot: Optional[Mapping[str, Any]]) -> None:
        """Fold a :meth:`snapshot` into this registry (None is a no-op)."""
        if not snapshot:
            return
        for name, samples in snapshot.get("timers", {}).items():
            self._timers.setdefault(name, []).extend(float(s) for s in samples)
        for name, value in snapshot.get("counters", {}).items():
            self.increment(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.set_gauge(name, value)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's contents into this one."""
        self.merge_snapshot(other.snapshot())

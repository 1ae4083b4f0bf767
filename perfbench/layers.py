"""Which ``repro`` functions make up each layer, and the per-layer metrics.

Layers are named after ``src/repro`` modules. :func:`install` wraps the
public entry points of each layer with :class:`~tracer.Tracer` spans
(plus counters for the work each call did) and returns the
:class:`~tracer.Patcher` that undoes it. Wrappers installed before
``launch_campaign`` forks are inherited by its workers; each worker
restarts the tracer under its own run id and spools its spans when it
exits, so the launcher's roll-up covers the workers too.
"""

from __future__ import annotations

import importlib
import os
from collections import Counter
from typing import Any, Callable, Dict, Iterable, List, Optional

from tracer import LayerRollup, Patcher, Span, Tracer, rollup

__all__ = [
    "install",
    "layer_metrics",
    "render_rollup",
    "ratio",
    "useful_ratio",
    "ROOT",
    "WORKER",
]

#: The benchmark's own span around each timed call of a workload.
ROOT = "run"
#: Root span of a forked campaign worker's lifetime.
WORKER = "campaign.worker"


def ratio(part: float, whole: float) -> float:
    """``part / whole``, and 0 when there is no base (nothing happened)."""
    return part / whole if whole else 0.0


def useful_ratio(useful: int, executions: int) -> float:
    """Plan shards completed per shard execution.

    Below 1 when lease races ran a shard twice. With no execution at all
    (a resume over a complete store) no work was wasted, so it is 1.
    """
    if executions == 0:
        return 1.0
    return useful / executions


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _observe_solve(tracer: Tracer):
    def observe(args, kwargs):
        estimator = args[0]
        warm = estimator.warm_start is not None

        def after(_result):
            tracer.count("estimation.solve.iterations", estimator.last_result.iterations)
            tracer.count("estimation.solve.converged", int(estimator.last_result.converged))
            tracer.count("estimation.solve.warm", int(warm))

        return after

    return observe


def _observe_gain_cache(tracer: Tracer):
    def observe(args, kwargs):
        cache = args[0]
        hits, misses = cache.hits, cache.misses

        def after(_result):
            tracer.count("arrays.gain_cache.hits", cache.hits - hits)
            tracer.count("arrays.gain_cache.misses", cache.misses - misses)

        return after

    return observe


def _observe_probe(tracer: Tracer, pairs_arg: Optional[int]):
    """Count pairs and interference hits at the outermost probe call."""

    def observe(args, kwargs):
        owner = args[0]
        engine = getattr(owner, "engine", owner)
        hits = engine.interference_hits
        pairs = 1 if pairs_arg is None else len(_arg(args, kwargs, pairs_arg, "pairs"))

        def after(_result):
            tracer.count("measurement.probe.pairs", pairs)
            tracer.count("measurement.interference_hits", engine.interference_hits - hits)

        return after

    return observe


def _observe_store_write(tracer: Tracer):
    def observe(args, kwargs):
        def after(path):
            tracer.count("campaign.store.bytes_written", os.path.getsize(path))

        return after

    return observe


def _observe_acquire(tracer: Tracer):
    def observe(args, kwargs):
        manager = args[0]
        takeovers = manager.takeovers

        def after(acquired):
            tracer.count("campaign.lease.acquires" if acquired else "campaign.lease.conflicts")
            tracer.count("campaign.lease.takeovers", manager.takeovers - takeovers)

        return after

    return observe


def _worker_root(tracer: Tracer, fn: Callable) -> Callable:
    """Wrap a forked worker's entry: fresh trace state, spooled at exit.

    A forked child leaves through ``os._exit`` without running atexit
    handlers, so the spans are written in ``finally`` here, including
    when the entry ends with ``sys.exit``.
    """

    def worker(*args: Any, **kwargs: Any) -> Any:
        tracer.restart(f"worker-{os.getpid()}")
        span = tracer.open(WORKER)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)
            tracer.spool()

    return worker


def _align_classes() -> List[type]:
    from repro.core.base import BeamAlignmentAlgorithm

    found, pending = [], list(BeamAlignmentAlgorithm.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "align" in cls.__dict__:
            found.append(cls)
    return found


def install(tracer: Tracer) -> Patcher:
    """Wrap every layer's entry points; restore with ``patcher.restore()``."""
    for name in (
        "repro.cli",
        "repro.experiments",
        "repro.cell",
        "repro.campaign",
        "repro.campaign.distributed",
        "repro.sim.batch",
        "repro.sim.parallel",
        "repro.channel.batch",
        "repro.obs.openmetrics",
    ):
        importlib.import_module(name)
    mod = importlib.import_module
    patcher = Patcher()

    def method(cls_path: str, attr: str, layer: str, observe=None, span: bool = True) -> None:
        module_name, cls_name = cls_path.split(":")
        cls = getattr(mod(module_name), cls_name)
        patcher.patch_method(
            cls, attr, lambda fn: tracer.wrap(layer, fn, observe=observe, span=span)
        )

    def function(module_name: str, attr: str, layer: str, observe=None) -> None:
        patcher.patch_function(
            mod(module_name), attr, lambda fn: tracer.wrap(layer, fn, observe=observe)
        )

    method("repro.estimation.ml_covariance:MlCovarianceEstimator", "estimate",
           "estimation.solve", _observe_solve(tracer))
    method("repro.arrays.codebook:Codebook", "gains", "arrays.gains")
    method("repro.arrays.codebook:CodebookGainCache", "gains", "arrays.gain_cache",
           _observe_gain_cache(tracer), span=False)
    for attr, pairs_arg in (("measure", None), ("measure_many", 1), ("measure_vectors", None)):
        method("repro.core.base:AlignmentContext", attr, "measurement.probe",
               _observe_probe(tracer, pairs_arg))
    for attr, pairs_arg in (("measure_pair", None), ("measure_pairs", 3), ("measure_vectors", None)):
        method("repro.measurement.measurer:MeasurementEngine", attr, "measurement.probe",
               _observe_probe(tracer, pairs_arg))
    # Arrays, codebooks and the shared pair table: once per run_fig6
    # call, once per serve, once in every forked campaign worker.
    method("repro.sim.scenario:Scenario", "__init__", "sim.scenario")
    method("repro.sim.scenario:Scenario", "context", "sim.scenario")
    method("repro.sim.scenario:Scenario", "sample_channel", "channel.sample")
    method("repro.sim.scenario:Scenario", "sample_channel_batch", "channel.sample")
    method("repro.channel.base:ClusteredChannel", "mean_snr_matrix", "channel.ground_truth")
    function("repro.channel.batch", "mean_snr_matrices", "channel.ground_truth")
    for cls in _align_classes():
        patcher.patch_method(cls, "align", lambda fn: tracer.wrap("core.align", fn))
    function("repro.sim.runner", "run_trial", "sim.trial")
    function("repro.sim.batch", "run_trial_block", "sim.trial")
    function("repro.cell.scheduler", "build_schedule", "cell.schedule")
    function("repro.obs.openmetrics", "write_openmetrics", "cell.publish")
    function("repro.cell.metrics", "summarize_records", "cell.summarize")
    method("repro.campaign.store:ShardStore", "put", "campaign.store.write",
           _observe_store_write(tracer))
    method("repro.campaign.store:ShardStore", "get", "campaign.store.read")
    method("repro.campaign.store:ShardStore", "write_heartbeat", "campaign.heartbeat")
    method("repro.campaign.lease:LeaseManager", "acquire", "campaign.lease",
           _observe_acquire(tracer))
    for attr in ("renew", "release", "still_owns"):
        method("repro.campaign.lease:LeaseManager", attr, "campaign.lease")
    # Content addresses are recomputed from the canonical JSON on every
    # access; the worker loop, heartbeats and store paths all ask for them.
    method("repro.campaign.plan:ShardSpec", "digest", "campaign.plan.digest")
    method("repro.campaign.plan:CampaignPlan", "digest", "campaign.plan.digest")
    function("repro.campaign.worker", "execute_shard_in_process", "campaign.execute")
    function("repro.campaign.distributed", "launch_campaign", "campaign.launch")
    patcher.patch_function(
        mod("repro.campaign.distributed"), "_worker_entry", lambda fn: _worker_root(tracer, fn)
    )
    return patcher


def _launch_lags(spans: List[Span]) -> float:
    """Sum over launches of the time from the last artifact write to return."""
    writes = [span.end for span in spans if span.name == "campaign.store.write"]
    total = 0.0
    for launch in (span for span in spans if span.name == "campaign.launch"):
        landed = [end for end in writes if launch.start <= end <= launch.end]
        total += launch.end - max(landed, default=launch.start)
    return total


def layer_metrics(
    spans: Iterable[Span],
    counters: Counter,
    plan_shards: int,
    overhead_ratio: float,
) -> Dict[str, float]:
    """The traced run's per-layer metrics, from its spans and counters.

    ``plan_shards`` is the number of campaign plan shards the traced
    calls completed by executing them (0 where none were executed). The
    ``startup.*`` metrics come from the set-up probes instead.
    """
    spans = list(spans)
    layers = rollup(spans)

    def calls(layer: str) -> int:
        return layers[layer].calls if layer in layers else 0

    def self_s(layer: str) -> float:
        return layers[layer].self_s if layer in layers else 0.0

    solves = calls("estimation.solve")
    lookups = counters["arrays.gain_cache.hits"] + counters["arrays.gain_cache.misses"]
    executions = calls("campaign.execute")
    return {
        "estimation.solve.calls": solves,
        "estimation.solve.iterations": counters["estimation.solve.iterations"],
        "estimation.solve.converged_ratio": ratio(counters["estimation.solve.converged"], solves),
        "estimation.solve.warm_ratio": ratio(counters["estimation.solve.warm"], solves),
        "estimation.solve.self_s": self_s("estimation.solve"),
        "arrays.gains.calls": calls("arrays.gains"),
        "arrays.gains.self_s": self_s("arrays.gains"),
        "arrays.gain_cache.hit_ratio": ratio(counters["arrays.gain_cache.hits"], lookups),
        "arrays.gain_cache.lookups": lookups,
        "measurement.probe.calls": calls("measurement.probe"),
        "measurement.probe.pairs": counters["measurement.probe.pairs"],
        "measurement.probe.self_s": self_s("measurement.probe"),
        "measurement.interference_hits": counters["measurement.interference_hits"],
        "channel.sample.calls": calls("channel.sample"),
        "channel.sample.self_s": self_s("channel.sample"),
        "channel.ground_truth.calls": calls("channel.ground_truth"),
        "channel.ground_truth.self_s": self_s("channel.ground_truth"),
        "core.align.calls": calls("core.align"),
        "core.align.self_s": self_s("core.align"),
        "sim.trial.calls": calls("sim.trial"),
        "sim.trial.self_s": self_s("sim.trial"),
        "sim.scenario.self_s": self_s("sim.scenario"),
        "cell.schedule.self_s": self_s("cell.schedule"),
        "cell.publish.calls": calls("cell.publish"),
        "cell.publish.self_s": self_s("cell.publish"),
        "cell.summarize.self_s": self_s("cell.summarize"),
        "campaign.store.writes": calls("campaign.store.write"),
        "campaign.store.reads": calls("campaign.store.read"),
        "campaign.store.write_s": self_s("campaign.store.write"),
        "campaign.store.read_s": self_s("campaign.store.read"),
        "campaign.store.bytes_written": counters["campaign.store.bytes_written"],
        "campaign.lease.acquires": counters["campaign.lease.acquires"],
        "campaign.lease.conflicts": counters["campaign.lease.conflicts"],
        "campaign.lease.takeovers": counters["campaign.lease.takeovers"],
        "campaign.lease.self_s": self_s("campaign.lease"),
        "campaign.heartbeat.writes": calls("campaign.heartbeat"),
        "campaign.heartbeat.self_s": self_s("campaign.heartbeat"),
        "campaign.plan.digest.calls": calls("campaign.plan.digest"),
        "campaign.plan.digest.self_s": self_s("campaign.plan.digest"),
        "campaign.executions": executions,
        "campaign.useful_ratio": useful_ratio(plan_shards, executions),
        "campaign.worker.idle_s": self_s(WORKER),
        "campaign.launch.watch_s": self_s("campaign.launch"),
        "campaign.launch.lag_s": _launch_lags(spans),
        "unattributed.self_s": self_s(ROOT),
        "trace.overhead_ratio": overhead_ratio,
    }


def render_rollup(spans: Iterable[Span], title: str) -> str:
    """The per-layer table: layer, calls, self_s and share of run.

    The share is of all traced time, the launcher's and every forked
    worker's together, so the shares add up to one.
    """
    layers: Dict[str, LayerRollup] = rollup(spans)
    total = sum(entry.self_s for entry in layers.values()) or 1.0
    lines = [title, f"{'layer':<24} {'calls':>9} {'self_s':>10} {'share':>7}"]
    for entry in sorted(layers.values(), key=lambda e: -e.self_s):
        lines.append(
            f"{entry.layer:<24} {entry.calls:>9d} {entry.self_s:>10.4f}"
            f" {entry.self_s / total:>6.1%}"
        )
    return "\n".join(lines)

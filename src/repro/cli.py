"""Command-line interface.

::

    repro list                      # enumerate experiments
    repro run fig6                  # regenerate a figure's series
    repro run fig6 --quick          # small/fast variant
    repro run fig6 --trials 50 --seed 7 --json out.json
    repro run fig6 --batch-trials 32            # batched trial engine
    repro run fig6 --store results/c6           # checkpointed (resumable) run
    repro run fig6 --trace out.jsonl --progress  # JSONL trace + ETA lines
    repro run fig6 --profile                    # cProfile hotspot tables
    repro run fig6 --trace t.jsonl --openmetrics m.prom  # scrapeable metrics
    repro run fig6 --trace a.jsonl --checkpoints  # stage-digest flight recorder
    repro run fig6 --trace a.jsonl --checkpoints --spill tensors/  # + full tensors
    repro diff a.jsonl b.jsonl                  # first divergent stage/trial
    repro diff results/c6a results/c6b --json   # shard-store provenance diff
    repro inspect a.jsonl --trial 3             # per-trial alignment storyboard
    repro trace summarize out.jsonl             # timing/convergence tables
    repro trace export out.jsonl --format chrome  # chrome://tracing JSON
    repro metrics export out.jsonl              # OpenMetrics text exposition
    repro align --channel multipath --rate 0.1  # one alignment, verbose
    repro report results/ --out REPORT.md       # fold saved JSONs into markdown
    repro campaign run --store results/camp --trials 100   # sharded sweep
    repro campaign launch --store results/camp --workers 4 --trials 100
    repro campaign worker --store results/camp  # one lease-based worker
    repro campaign status --store results/camp  # done/pending/failed shards
    repro campaign status --store results/camp --json  # health JSON for CI
    repro campaign watch --store results/camp   # refreshing TTY dashboard
    repro campaign resume --store results/camp --trials 100  # pick up where left
    repro campaign gc --store results/camp      # drop corrupt/orphaned shards
    repro cell serve --users 500 --arrival 2000  # multi-user MAC workload
    repro cell serve --users 500 --openmetrics cell.prom --summary cell.json

Also reachable as ``python -m repro.cli``. ``--log-level debug`` surfaces
the package's loggers on stderr; tracing and progress are opt-in and do
not perturb seeded results.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from contextlib import ExitStack
from typing import List, Optional

import numpy as np

from repro import experiments
from repro.obs import (
    MetricsRecorder,
    TraceRecorder,
    configure_logging,
    get_logger,
    print_progress,
    use_recorder,
)
from repro.sim.config import ChannelKind, ScenarioConfig
from repro.sim.runner import run_trial, standard_schemes
from repro.sim.scenario import Scenario
from repro.utils.serialization import dump
from repro.version import __version__

__all__ = ["main", "build_parser"]

logger = get_logger("cli")


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Directional beam alignment for mmWave cellular systems "
            "(ICDCS 2016 reproduction)"
        ),
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default=None,
        help="enable package logging on stderr at this level",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    list_cmd = commands.add_parser("list", help="list registered experiments")
    list_cmd.set_defaults(handler=_handle_list)

    run_cmd = commands.add_parser("run", help="run a registered experiment")
    run_cmd.add_argument("experiment", help="experiment id (see `repro list`)")
    run_cmd.add_argument("--quick", action="store_true", help="small/fast variant")
    run_cmd.add_argument("--trials", type=int, default=None, help="override trial count")
    run_cmd.add_argument("--seed", type=int, default=None, help="override base seed")
    run_cmd.add_argument("--json", default=None, help="also write result data as JSON")
    run_cmd.add_argument(
        "--trace", default=None, help="write a structured JSONL trace to this path"
    )
    _add_profile_arguments(run_cmd)
    run_cmd.add_argument(
        "--openmetrics",
        default=None,
        metavar="PATH",
        help=(
            "publish metrics as an OpenMetrics exposition file"
            " (periodically flushed when tracing, final snapshot otherwise)"
        ),
    )
    run_cmd.add_argument(
        "--progress",
        action="store_true",
        help="print throttled progress/ETA lines to stderr (sweep experiments)",
    )
    run_cmd.add_argument(
        "--batch-trials",
        type=int,
        default=None,
        metavar="B",
        help=(
            "run trials through the batched engine in blocks of B"
            " (bit-identical seeded results; try 32)"
        ),
    )
    run_cmd.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help=(
            "checkpoint the sweep in a campaign shard store at DIR;"
            " re-running resumes from completed shards (sweep experiments)"
        ),
    )
    _add_checkpoint_arguments(run_cmd)
    run_cmd.set_defaults(handler=_handle_run)

    diff_cmd = commands.add_parser(
        "diff",
        help="compare two runs' flight-recorder digests; localize divergence",
    )
    diff_cmd.add_argument("run_a", help="JSONL trace or campaign store directory")
    diff_cmd.add_argument("run_b", help="JSONL trace or campaign store directory")
    diff_cmd.add_argument(
        "--json", action="store_true", help="emit the diff result as JSON"
    )
    diff_cmd.add_argument(
        "--replay",
        action="store_true",
        help=(
            "if the runs diverge and carry no spilled tensors, re-execute"
            " the divergent trial from both sources with spill enabled to"
            " recover the exact array coordinate"
        ),
    )
    diff_cmd.set_defaults(handler=_handle_diff)

    inspect_cmd = commands.add_parser(
        "inspect", help="render one trial's alignment storyboard from a recorded run"
    )
    inspect_cmd.add_argument("run", help="JSONL trace or campaign store directory")
    inspect_cmd.add_argument("--trial", type=int, required=True, help="trial index")
    inspect_cmd.add_argument(
        "--rate", type=float, default=None, help="restrict to one search rate"
    )
    inspect_cmd.add_argument(
        "--json", action="store_true", help="emit the storyboard as JSON"
    )
    inspect_cmd.add_argument(
        "--max-probes", type=int, default=32, metavar="N",
        help="probe-table rows per scheme (default 32)",
    )
    inspect_cmd.set_defaults(handler=_handle_inspect)

    campaign_cmd = commands.add_parser(
        "campaign", help="checkpointed, fault-tolerant sweep campaigns"
    )
    campaign_sub = campaign_cmd.add_subparsers(dest="campaign_command", required=True)
    for verb, help_text in (
        ("run", "run a sharded effectiveness sweep against a store"),
        ("resume", "alias of run: completed shards are skipped automatically"),
    ):
        verb_cmd = campaign_sub.add_parser(verb, help=help_text)
        _add_campaign_plan_arguments(verb_cmd)
        verb_cmd.add_argument(
            "--workers", type=int, default=None, help="worker processes (default: in-process)"
        )
        verb_cmd.add_argument(
            "--retries", type=int, default=2, help="extra attempts per failing shard"
        )
        verb_cmd.add_argument(
            "--backoff", type=float, default=0.0, metavar="S",
            help="base retry backoff in seconds (doubles per attempt)",
        )
        verb_cmd.add_argument(
            "--timeout", type=float, default=None, metavar="S",
            help="per-shard pool timeout before in-process fallback",
        )
        verb_cmd.add_argument(
            "--batch-trials", type=int, default=None, metavar="B",
            help="run each shard through the batched engine in blocks of B",
        )
        verb_cmd.add_argument(
            "--json", default=None, help="write the assembled sweep as JSON"
        )
        verb_cmd.add_argument(
            "--progress", action="store_true", help="print progress/ETA lines to stderr"
        )
        verb_cmd.add_argument(
            "--checkpoints",
            action="store_true",
            help=(
                "record flight-recorder stage digests into each shard"
                " artifact (provenance for `repro diff` / --verify-digests)"
            ),
        )
        verb_cmd.add_argument(
            "--verify-digests",
            action="store_true",
            help="require a digest manifest covering every shard trial at assembly",
        )
        verb_cmd.set_defaults(handler=_handle_campaign_run)

    launch_cmd = campaign_sub.add_parser(
        "launch",
        help="run a sweep across N coordinator-free lease-based worker processes",
    )
    _add_campaign_plan_arguments(launch_cmd)
    launch_cmd.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker processes to spawn (default 2)",
    )
    launch_cmd.add_argument(
        "--retries", type=int, default=2, help="extra attempts per failing shard"
    )
    launch_cmd.add_argument(
        "--backoff", type=float, default=0.0, metavar="S",
        help="base retry backoff in seconds (doubled per attempt, jittered)",
    )
    launch_cmd.add_argument(
        "--batch-trials", type=int, default=None, metavar="B",
        help="run each shard through the batched engine in blocks of B",
    )
    launch_cmd.add_argument(
        "--lease-ttl", type=float, default=None, metavar="S",
        help="shard lease time-to-live before takeover (default 30)",
    )
    launch_cmd.add_argument(
        "--claim-batch", type=int, default=1, metavar="K",
        help="shards each worker claims per scan before executing (default 1)",
    )
    launch_cmd.add_argument(
        "--json", default=None, help="write the assembled sweep as JSON"
    )
    launch_cmd.add_argument(
        "--progress", action="store_true", help="print progress/ETA lines to stderr"
    )
    launch_cmd.add_argument(
        "--checkpoints", action="store_true",
        help="record flight-recorder stage digests into each shard artifact",
    )
    launch_cmd.add_argument(
        "--verify-digests", action="store_true",
        help="require a digest manifest covering every shard trial at assembly",
    )
    launch_cmd.set_defaults(handler=_handle_campaign_launch)

    worker_cmd = campaign_sub.add_parser(
        "worker",
        help="run one lease-based worker against a plan recorded in the store",
    )
    worker_cmd.add_argument(
        "plan", nargs="?", default=None, metavar="PLAN",
        help=(
            "plan digest (or unique prefix) from the store's manifests;"
            " defaults to the store's only recorded plan"
        ),
    )
    worker_cmd.add_argument("--store", required=True, metavar="DIR", help="shard store root")
    worker_cmd.add_argument(
        "--worker-id", default=None, metavar="ID",
        help="stable worker name for heartbeats/leases (default: worker-<pid>)",
    )
    worker_cmd.add_argument(
        "--retries", type=int, default=2, help="extra attempts per failing shard"
    )
    worker_cmd.add_argument(
        "--backoff", type=float, default=0.0, metavar="S",
        help="base retry backoff in seconds (doubled per attempt, jittered)",
    )
    worker_cmd.add_argument(
        "--batch-trials", type=int, default=None, metavar="B",
        help="run each shard through the batched engine in blocks of B",
    )
    worker_cmd.add_argument(
        "--lease-ttl", type=float, default=None, metavar="S",
        help="shard lease time-to-live before takeover (default 30)",
    )
    worker_cmd.add_argument(
        "--poll", type=float, default=None, metavar="S",
        help="sleep between scans while other workers hold every pending shard",
    )
    worker_cmd.add_argument(
        "--claim-batch", type=int, default=1, metavar="K",
        help="shards to claim per scan before executing (default 1)",
    )
    worker_cmd.add_argument(
        "--max-shards", type=int, default=None, metavar="N",
        help="stop after executing N shards (default: run to completion)",
    )
    worker_cmd.add_argument(
        "--progress", action="store_true", help="print progress/ETA lines to stderr"
    )
    worker_cmd.add_argument(
        "--checkpoints", action="store_true",
        help="record flight-recorder stage digests into each shard artifact",
    )
    worker_cmd.set_defaults(handler=_handle_campaign_worker)

    status_cmd = campaign_sub.add_parser(
        "status", help="report done/pending/failed shard counts per recorded campaign"
    )
    status_cmd.add_argument("--store", required=True, metavar="DIR")
    status_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit heartbeat-aware health as JSON (for CI / scripting)",
    )
    status_cmd.add_argument(
        "--stall-factor",
        type=float,
        default=None,
        metavar="F",
        help="flag shards stalled after F x the median shard time (default 4)",
    )
    status_cmd.set_defaults(handler=_handle_campaign_status)

    watch_cmd = campaign_sub.add_parser(
        "watch", help="refreshing TTY dashboard of live campaign health"
    )
    watch_cmd.add_argument("--store", required=True, metavar="DIR")
    watch_cmd.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="refresh period in seconds (default 2)",
    )
    watch_cmd.add_argument(
        "--once", action="store_true", help="render a single frame and exit"
    )
    watch_cmd.add_argument(
        "--stall-factor",
        type=float,
        default=None,
        metavar="F",
        help="flag shards stalled after F x the median shard time (default 4)",
    )
    watch_cmd.set_defaults(handler=_handle_campaign_watch)

    gc_cmd = campaign_sub.add_parser(
        "gc", help="remove corrupt artifacts and shards no recorded campaign references"
    )
    gc_cmd.add_argument("--store", required=True, metavar="DIR")
    gc_cmd.add_argument(
        "--dry-run", action="store_true", help="only report what would be removed"
    )
    gc_cmd.set_defaults(handler=_handle_campaign_gc)

    cell_cmd = commands.add_parser(
        "cell", help="cell-scale alignment-as-a-service workload"
    )
    cell_sub = cell_cmd.add_subparsers(dest="cell_command", required=True)
    serve_cmd = cell_sub.add_parser(
        "serve",
        help="serve a multi-user alignment workload with live metrics",
    )
    serve_cmd.add_argument(
        "--users", type=int, default=500, metavar="N", help="UEs to admit (default 500)"
    )
    serve_cmd.add_argument(
        "--arrival",
        type=float,
        default=2000.0,
        metavar="HZ",
        help="Poisson arrival rate in UE/s (default 2000)",
    )
    serve_cmd.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="S",
        help="arrival window in seconds (default: admit all users)",
    )
    serve_cmd.add_argument(
        "--rate", type=float, default=0.05, help="per-UE search rate (0, 1]"
    )
    serve_cmd.add_argument(
        "--scheme",
        default="Scan",
        metavar="NAME",
        help="alignment scheme every UE runs (default Scan)",
    )
    serve_cmd.add_argument(
        "--channel",
        choices=[kind.value for kind in ChannelKind],
        default=ChannelKind.MULTIPATH.value,
    )
    serve_cmd.add_argument("--snr-db", type=float, default=20.0)
    serve_cmd.add_argument("--seed", type=int, default=None, help="base seed")
    serve_cmd.add_argument(
        "--probe-budget",
        type=int,
        default=64,
        metavar="N",
        help="measurement grants per superframe (default 64)",
    )
    serve_cmd.add_argument(
        "--interference-coupling",
        type=float,
        default=0.05,
        metavar="C",
        help="impulse-hit probability per co-scheduled UE (default 0.05)",
    )
    serve_cmd.add_argument(
        "--interference-power",
        type=float,
        default=2.0,
        metavar="P",
        help="power of one interference impulse (default 2.0)",
    )
    serve_cmd.add_argument(
        "--batch-users",
        type=int,
        default=32,
        metavar="B",
        help="UEs per batched channel block (default 32)",
    )
    serve_cmd.add_argument(
        "--serial",
        action="store_true",
        help="run the serial reference path instead of batched blocks",
    )
    serve_cmd.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="fan shards across N worker processes",
    )
    serve_cmd.add_argument(
        "--shard-ues",
        type=int,
        default=None,
        metavar="N",
        help="UEs per shard (default 64)",
    )
    serve_cmd.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="shard store root for resumable execution + heartbeats",
    )
    serve_cmd.add_argument(
        "--openmetrics",
        default=None,
        metavar="FILE",
        help="publish a live OpenMetrics exposition here (atomic rewrites)",
    )
    serve_cmd.add_argument(
        "--summary",
        default=None,
        metavar="FILE",
        help="write the deterministic summary artifact here",
    )
    serve_cmd.add_argument(
        "--quick", action="store_true", help="small arrays / few UEs smoke preset"
    )
    serve_cmd.add_argument(
        "--progress", action="store_true", help="print progress/ETA lines to stderr"
    )
    serve_cmd.set_defaults(handler=_handle_cell_serve)

    report_cmd = commands.add_parser(
        "report", help="render a markdown report from saved result JSONs"
    )
    report_cmd.add_argument("directory", help="directory of <experiment>.json files")
    report_cmd.add_argument("--out", default=None, help="write markdown here (default: stdout)")
    report_cmd.set_defaults(handler=_handle_report)

    align_cmd = commands.add_parser("align", help="run one alignment trial verbosely")
    align_cmd.add_argument(
        "--channel",
        choices=[kind.value for kind in ChannelKind],
        default=ChannelKind.MULTIPATH.value,
    )
    align_cmd.add_argument("--rate", type=float, default=0.1, help="search rate (0, 1]")
    align_cmd.add_argument("--snr-db", type=float, default=20.0)
    align_cmd.add_argument("--seed", type=int, default=0)
    align_cmd.add_argument(
        "--trace", default=None, help="write a structured JSONL trace to this path"
    )
    _add_profile_arguments(align_cmd)
    align_cmd.set_defaults(handler=_handle_align)

    trace_cmd = commands.add_parser("trace", help="inspect structured JSONL traces")
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    summarize_cmd = trace_sub.add_parser(
        "summarize", help="render timing and convergence tables from a trace"
    )
    summarize_cmd.add_argument("trace_file", help="JSONL trace written by --trace")
    summarize_cmd.set_defaults(handler=_handle_trace_summarize)
    export_cmd = trace_sub.add_parser(
        "export", help="convert a trace for external viewers"
    )
    export_cmd.add_argument("trace_file", help="JSONL trace written by --trace")
    export_cmd.add_argument(
        "--format",
        choices=["chrome"],
        default="chrome",
        help="output format (chrome://tracing / Perfetto trace-event JSON)",
    )
    export_cmd.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="output path (default: <trace_file>.chrome.json)",
    )
    export_cmd.set_defaults(handler=_handle_trace_export)

    metrics_cmd = commands.add_parser(
        "metrics", help="export aggregated metrics from structured traces"
    )
    metrics_sub = metrics_cmd.add_subparsers(dest="metrics_command", required=True)
    metrics_export_cmd = metrics_sub.add_parser(
        "export", help="render a trace's metrics as an OpenMetrics exposition"
    )
    metrics_export_cmd.add_argument("trace_file", help="JSONL trace written by --trace")
    metrics_export_cmd.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the exposition here (default: stdout)",
    )
    metrics_export_cmd.set_defaults(handler=_handle_metrics_export)

    return parser


def _add_profile_arguments(parser: argparse.ArgumentParser) -> None:
    """The profiling options shared by ``run`` and ``align``."""
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile the run and print hotspot tables (composes with --trace)",
    )
    parser.add_argument(
        "--profile-mode",
        choices=["cprofile", "sample"],
        default="cprofile",
        help="deterministic cProfile or low-overhead wall-clock stack sampling",
    )
    parser.add_argument(
        "--profile-top",
        type=int,
        default=15,
        metavar="N",
        help="rows per hotspot table (default 15)",
    )


def _add_checkpoint_arguments(parser: argparse.ArgumentParser) -> None:
    """The flight-recorder options of ``run``."""
    parser.add_argument(
        "--checkpoints",
        action="store_true",
        help=(
            "record stage-level flight-recorder digests (needs --trace to"
            " stream them, and/or --store to persist them in shard artifacts)"
        ),
    )
    parser.add_argument(
        "--spill",
        default=None,
        metavar="DIR",
        help="with --checkpoints: also save every stage's full tensors under DIR",
    )
    parser.add_argument(
        "--inject-perturbation",
        default=None,
        metavar="TRIAL:STAGE:INDEX",
        help=(
            "detector self-test: bump one element of one stage's recorded"
            " copy by one ULP before digesting (simulation untouched);"
            " also settable via the REPRO_CHECKPOINT_PERTURB env var"
        ),
    )


def _handle_list(args: argparse.Namespace) -> int:
    for experiment_id in experiments.list_ids():
        experiment = experiments.get(experiment_id)
        print(f"{experiment_id:14s} {experiment.paper_artifact:30s} {experiment.title}")
    return 0


def _accepts_kwarg(func, name: str) -> bool:
    """True if ``func`` can take ``name`` as a keyword argument."""
    try:
        parameters = inspect.signature(func).parameters
    except (TypeError, ValueError):
        return False
    if name in parameters:
        return True
    return any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values())


def _build_recorder_stack(args: argparse.Namespace, stack: ExitStack, run_meta=None):
    """The recorder implied by --trace/--openmetrics/--profile/--checkpoints.

    Returns ``(recorder, profiler)`` where ``recorder`` is the outermost
    recorder to install (or ``None`` when no diagnostics were requested)
    and ``profiler`` is the :class:`ProfilingRecorder` when --profile is
    on (it may also *be* the recorder). With ``--checkpoints`` the stack
    is additionally wrapped (outermost) in a
    :class:`~repro.obs.CheckpointRecorder` streaming stage digests into
    the trace; ``run_meta`` lands in the trace header so ``repro diff``
    can replay the run. Raises ``OSError`` when the trace file cannot be
    opened.
    """
    trace_path = getattr(args, "trace", None)
    openmetrics_path = getattr(args, "openmetrics", None)
    checkpoints = getattr(args, "checkpoints", False) and trace_path
    if trace_path:
        recorder = stack.enter_context(
            TraceRecorder(
                trace_path, openmetrics_path=openmetrics_path, run_meta=run_meta
            )
        )
    elif openmetrics_path or args.profile:
        recorder = MetricsRecorder()
    else:
        return None, None
    profiler = None
    if args.profile:
        from repro.obs import ProfilingRecorder

        profiler = ProfilingRecorder(inner=recorder, mode=args.profile_mode)
        recorder = profiler
    if checkpoints:
        from repro.obs import CheckpointRecorder

        spill_dir = getattr(args, "spill", None)
        recorder = CheckpointRecorder(
            inner=recorder,
            spill_dir=spill_dir,
            spill="all" if spill_dir else "off",
            perturb=getattr(args, "inject_perturbation", None),
        )
    return recorder, profiler


def _finish_diagnostics(args: argparse.Namespace, recorder, profiler) -> None:
    """Post-run output for --profile/--openmetrics (non-trace path)."""
    if profiler is not None:
        from repro.obs import render_profile

        print()
        print(render_profile(profiler, top=args.profile_top))
    openmetrics_path = getattr(args, "openmetrics", None)
    if openmetrics_path and not getattr(args, "trace", None):
        from repro.obs import write_openmetrics

        write_openmetrics(recorder.metrics, openmetrics_path)
    if openmetrics_path:
        print(f"\nwrote OpenMetrics exposition {openmetrics_path}")


def _handle_run(args: argparse.Namespace) -> int:
    overrides = {}
    if args.quick:
        overrides["quick"] = True
    if args.trials is not None:
        overrides["num_trials"] = args.trials
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    experiment = experiments.get(args.experiment)
    runner = experiment.runner
    if args.checkpoints and not args.trace and not args.store:
        print(
            "error: --checkpoints needs --trace (to stream digests) and/or"
            " --store (to persist them in shard artifacts)",
            file=sys.stderr,
        )
        return 2
    if args.spill and not args.checkpoints:
        print("error: --spill needs --checkpoints", file=sys.stderr)
        return 2
    run_meta = None
    if args.checkpoints and args.trace and experiment.replay_meta is not None:
        run_meta = experiment.replay_meta(
            **{k: v for k, v in overrides.items() if k != "progress"}
        )
    if args.checkpoints and args.store is not None:
        if _accepts_kwarg(runner, "checkpoints"):
            overrides["checkpoints"] = True
        else:
            print(
                f"note: experiment {args.experiment!r} does not support"
                " campaign checkpoint digests",
                file=sys.stderr,
            )
    if args.progress:
        if _accepts_kwarg(runner, "progress"):
            overrides["progress"] = print_progress
        else:
            print(
                f"note: experiment {args.experiment!r} does not report progress",
                file=sys.stderr,
            )
    if args.batch_trials is not None:
        if _accepts_kwarg(runner, "batch_trials"):
            overrides["batch_trials"] = args.batch_trials
        else:
            print(
                f"note: experiment {args.experiment!r} does not support batching",
                file=sys.stderr,
            )
    if args.store is not None:
        if _accepts_kwarg(runner, "store"):
            overrides["store"] = args.store
        else:
            print(
                f"note: experiment {args.experiment!r} does not support"
                " campaign checkpointing",
                file=sys.stderr,
            )
    with ExitStack() as stack:
        try:
            recorder, profiler = _build_recorder_stack(args, stack, run_meta=run_meta)
        except OSError as error:
            print(f"error: cannot write trace {args.trace}: {error}", file=sys.stderr)
            return 2
        if recorder is not None:
            stack.enter_context(use_recorder(recorder))
        if args.trace:
            logger.info("tracing %s to %s", args.experiment, args.trace)
        result = experiments.run(args.experiment, **overrides)
    print(result.table)
    _finish_diagnostics(args, recorder, profiler)
    if recorder is not None:
        from repro.obs import find_checkpointer

        checkpointer = find_checkpointer(recorder)
        if checkpointer is not None:
            print(
                f"\nrecorded {len(checkpointer.events)} checkpoint digest(s)"
                + (f" (tensors spilled under {args.spill})" if args.spill else "")
                + " — compare runs with `repro diff`"
            )
    if args.trace:
        print(f"\nwrote trace {args.trace} (inspect with `repro trace summarize`)")
    if args.json:
        dump({"id": result.experiment_id, "title": result.title, "data": result.data}, args.json)
        print(f"\nwrote {args.json}")
    return 0


def _add_campaign_plan_arguments(parser: argparse.ArgumentParser) -> None:
    """The options that define a campaign's plan (shared by run/resume)."""
    parser.add_argument("--store", required=True, metavar="DIR", help="shard store root")
    parser.add_argument(
        "--channel",
        choices=[kind.value for kind in ChannelKind],
        default=ChannelKind.MULTIPATH.value,
    )
    parser.add_argument(
        "--rates",
        default=None,
        metavar="R1,R2,...",
        help="comma-separated search rates in (0, 1] (default: the figure grid)",
    )
    parser.add_argument("--trials", type=int, default=None, help="trials per rate")
    parser.add_argument("--seed", type=int, default=None, help="base seed")
    parser.add_argument("--snr-db", type=float, default=20.0)
    parser.add_argument("--measurements-per-slot", type=int, default=8)
    parser.add_argument(
        "--shard-trials", type=int, default=None, metavar="N",
        help="trials per shard (default 8)",
    )
    parser.add_argument("--quick", action="store_true", help="small/fast variant")


def _campaign_plan_from_args(args: argparse.Namespace):
    """Build the (config, plan) a campaign verb describes."""
    from repro.campaign import plan_effectiveness_sweep, standard_scheme_specs
    from repro.experiments.common import DEFAULT_SEARCH_RATES, DEFAULT_SEED, DEFAULT_TRIALS

    num_trials = args.trials if args.trials is not None else DEFAULT_TRIALS
    rates = (
        tuple(float(token) for token in args.rates.split(","))
        if args.rates
        else DEFAULT_SEARCH_RATES
    )
    if args.quick:
        num_trials = min(num_trials, 4)
        if not args.rates:
            rates = (0.10, 0.20)
    config = ScenarioConfig(channel=ChannelKind(args.channel), snr_db=args.snr_db)
    plan = plan_effectiveness_sweep(
        config,
        standard_scheme_specs(measurements_per_slot=args.measurements_per_slot),
        rates,
        num_trials,
        base_seed=args.seed if args.seed is not None else DEFAULT_SEED,
        shard_trials=args.shard_trials,
    )
    return config, plan


def _handle_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign import ShardStore, campaign_status, run_campaign
    from repro.exceptions import CampaignError

    config, plan = _campaign_plan_from_args(args)
    store = ShardStore(args.store)
    before = campaign_status(plan, store)
    print(
        f"campaign {plan.digest[:12]}: {len(plan.shards)} shards"
        f" ({plan.total_trials} trials), {before.done} already done"
    )
    try:
        report = run_campaign(
            plan,
            store,
            max_workers=args.workers,
            batch_trials=args.batch_trials,
            retries=args.retries,
            backoff_s=args.backoff,
            timeout_s=args.timeout,
            progress=print_progress if args.progress else None,
            checkpoints=args.checkpoints,
        )
    except CampaignError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(
        f"executed {report.executed} shards, skipped {report.skipped},"
        f" {report.retries} retries, {report.fallbacks} fallbacks"
        + (f", {report.deferred} deferred to other workers" if report.deferred else "")
    )
    return _finish_campaign(args, config, plan, store)


def _finish_campaign(args, config, plan, store) -> int:
    """Assemble, render, and optionally persist one completed campaign."""
    from repro.campaign import assemble_effectiveness_sweep
    from repro.exceptions import CampaignError
    from repro.experiments.render import render_effectiveness
    from repro.sim.persistence import build_provenance, save_effectiveness_sweep

    try:
        sweep = assemble_effectiveness_sweep(
            plan, store, verify_digests=args.verify_digests
        )
    except CampaignError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.verify_digests:
        print(f"verified digest manifests for all {len(plan.shards)} shard(s)")
    print(render_effectiveness(sweep, f"Campaign sweep ({args.channel})"))
    if args.json:
        save_effectiveness_sweep(
            sweep,
            args.json,
            provenance=build_provenance(
                base_seed=plan.base_seed,
                num_trials=plan.num_trials,
                config=config,
            ),
        )
        print(f"\nwrote {args.json}")
    return 0


def _handle_campaign_launch(args: argparse.Namespace) -> int:
    from repro.campaign import ShardStore, campaign_status, launch_campaign

    config, plan = _campaign_plan_from_args(args)
    store = ShardStore(args.store)
    before = campaign_status(plan, store)
    print(
        f"campaign {plan.digest[:12]}: {len(plan.shards)} shards"
        f" ({plan.total_trials} trials), {before.done} already done;"
        f" launching {args.workers} lease-based worker(s)"
    )
    kwargs = {}
    if args.lease_ttl is not None:
        kwargs["lease_ttl_s"] = args.lease_ttl
    report = launch_campaign(
        plan,
        store,
        num_workers=args.workers,
        batch_trials=args.batch_trials,
        retries=args.retries,
        backoff_s=args.backoff,
        claim_batch=args.claim_batch,
        checkpoints=args.checkpoints,
        progress=print_progress if args.progress else None,
        **kwargs,
    )
    attribution = ", ".join(
        f"{worker}: {count}" for worker, count in report.attribution.items()
    )
    print(f"workers exited {list(report.exit_codes)}; shards by worker: {attribution or '-'}")
    if not report.complete:
        print("error: campaign incomplete after all workers exited", file=sys.stderr)
        return 1
    return _finish_campaign(args, config, plan, store)


def _resolve_stored_plan(store, token):
    """Find one recorded plan by digest prefix (or the sole manifest)."""
    manifests = store.load_manifests()
    if not manifests:
        raise SystemExit(f"error: no campaign manifests recorded in {store.root}")
    if token is None:
        if len(manifests) > 1:
            digests = ", ".join(digest[:12] for digest in sorted(manifests))
            raise SystemExit(
                f"error: store records {len(manifests)} plans ({digests});"
                " name one by digest prefix"
            )
        return next(iter(manifests.values()))
    matches = {
        digest: plan for digest, plan in manifests.items() if digest.startswith(token)
    }
    if not matches:
        raise SystemExit(f"error: no recorded plan matches {token!r}")
    if len(matches) > 1:
        digests = ", ".join(digest[:12] for digest in sorted(matches))
        raise SystemExit(f"error: plan prefix {token!r} is ambiguous ({digests})")
    return next(iter(matches.values()))


def _handle_campaign_worker(args: argparse.Namespace) -> int:
    from repro.campaign import ShardStore, run_worker

    store = ShardStore(args.store)
    try:
        plan = _resolve_stored_plan(store, args.plan)
    except SystemExit as error:
        print(error.code, file=sys.stderr)
        return 1
    kwargs = {}
    if args.lease_ttl is not None:
        kwargs["lease_ttl_s"] = args.lease_ttl
    if args.poll is not None:
        kwargs["poll_s"] = args.poll
    report = run_worker(
        plan,
        store,
        worker_id=args.worker_id,
        batch_trials=args.batch_trials,
        retries=args.retries,
        backoff_s=args.backoff,
        claim_batch=args.claim_batch,
        max_shards=args.max_shards,
        checkpoints=args.checkpoints,
        progress=print_progress if args.progress else None,
        **kwargs,
    )
    print(
        f"worker {report.worker_id}: executed {report.executed},"
        f" skipped {report.skipped}, retries {report.retries},"
        f" conflicts {report.conflicts}, takeovers {report.takeovers},"
        f" discarded {report.discarded}, failed {len(report.failed_digests)}"
    )
    return 1 if report.failed_digests else 0


def _campaign_health_kwargs(args: argparse.Namespace) -> dict:
    return (
        {"stall_factor": args.stall_factor} if args.stall_factor is not None else {}
    )


def _handle_campaign_status(args: argparse.Namespace) -> int:
    from repro.campaign import ShardStore, campaign_health, campaign_status

    store = ShardStore(args.store)
    manifests = store.load_manifests()
    if args.json:
        import json

        payload = [
            campaign_health(plan, store, **_campaign_health_kwargs(args)).to_payload()
            for _, plan in sorted(manifests.items())
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not manifests:
        print(f"no campaigns recorded in {args.store}")
        return 0
    for digest, plan in sorted(manifests.items()):
        status = campaign_status(plan, store)
        state = "complete" if status.complete else "in progress"
        print(
            f"campaign {digest[:12]} [{state}]: "
            f"{status.done} done / {status.pending} pending / "
            f"{status.failed} failed of {status.total} shards;"
            f" trials {status.done_trials}/{status.total_trials};"
            f" rates {', '.join(f'{r:g}' for r in plan.search_rates)}"
        )
        health = campaign_health(plan, store, **_campaign_health_kwargs(args))
        for host in health.hosts():
            print(
                f"  host {host.host}: {host.done} done / {host.active} active /"
                f" {host.stalled} stalled / {host.failed} failed;"
                f" trials {host.done_trials};"
                f" {len(host.workers)} worker(s)"
            )
    return 0


def _render_watch_frame(store, manifests, args):
    """One dashboard frame; returns ``(text, all_complete)``."""
    from repro.campaign import campaign_health, render_campaign_health

    frames = []
    complete = True
    for _, plan in sorted(manifests.items()):
        health = campaign_health(plan, store, **_campaign_health_kwargs(args))
        complete = complete and health.complete
        frames.append(render_campaign_health(health))
    return "\n".join(frames), complete


def _handle_campaign_watch(args: argparse.Namespace) -> int:
    import time as _time

    from repro.campaign import ShardStore

    store = ShardStore(args.store)
    manifests = store.load_manifests()
    if not manifests:
        print(f"no campaigns recorded in {args.store}")
        return 0
    if args.once:
        frame, _ = _render_watch_frame(store, manifests, args)
        print(frame, end="")
        return 0
    try:
        while True:
            manifests = store.load_manifests()
            frame, complete = _render_watch_frame(store, manifests, args)
            # Clear screen + home cursor, then the frame; degrades to a
            # scrolling log when piped.
            if sys.stdout.isatty():
                sys.stdout.write("\x1b[2J\x1b[H")
            sys.stdout.write(frame)
            sys.stdout.flush()
            if complete:
                return 0
            _time.sleep(max(0.1, args.interval))
    except KeyboardInterrupt:
        print()
        return 0


def _handle_campaign_gc(args: argparse.Namespace) -> int:
    from repro.campaign import ShardStore

    store = ShardStore(args.store)
    removed = store.gc(dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    print(f"{verb} {len(removed)} artifact(s) from {args.store}")
    for path in removed:
        print(f"  {path.name}")
    return 0


def _cell_config_from_args(args: argparse.Namespace):
    """Build the :class:`~repro.cell.config.CellConfig` serve describes."""
    from repro.cell import DEFAULT_CELL_SEED, CellConfig
    from repro.sim.parallel import SchemeSpec

    users = args.users
    if args.quick:
        scenario = ScenarioConfig(
            channel=ChannelKind(args.channel),
            snr_db=args.snr_db,
            tx_shape=(2, 2),
            rx_shape=(4, 4),
            rx_beam_grid=(6, 6),
        )
        users = min(users, 48)
    else:
        scenario = ScenarioConfig(
            channel=ChannelKind(args.channel), snr_db=args.snr_db
        )
    return CellConfig(
        scenario=scenario,
        num_users=users,
        arrival_rate_hz=args.arrival,
        duration_s=args.duration,
        search_rate=args.rate,
        scheme=SchemeSpec.of(args.scheme),
        base_seed=args.seed if args.seed is not None else DEFAULT_CELL_SEED,
        probe_budget_per_frame=args.probe_budget,
        interference_coupling=args.interference_coupling,
        interference_power=args.interference_power,
    )


def _handle_cell_serve(args: argparse.Namespace) -> int:
    from repro.cell import render_cell_report, serve_cell
    from repro.exceptions import ReproError

    try:
        config = _cell_config_from_args(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    store = None
    if args.store:
        from repro.campaign import ShardStore

        store = ShardStore(args.store)
    kwargs = {}
    if args.shard_ues is not None:
        kwargs["shard_ues"] = args.shard_ues
    try:
        report = serve_cell(
            config,
            store=store,
            batch_users=None if args.serial else args.batch_users,
            workers=args.workers,
            openmetrics_path=args.openmetrics,
            summary_path=args.summary,
            progress=print_progress if args.progress else None,
            **kwargs,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(render_cell_report(report))
    if report.summary_path is not None:
        print(f"wrote summary {report.summary_path}")
    if report.openmetrics_path is not None:
        print(f"wrote openmetrics {report.openmetrics_path}")
    return 0


def _handle_diff(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.obs.diff import (
        diff_checkpoints,
        diff_report_json,
        load_checkpoints,
        render_diff,
        replay_trial,
    )

    try:
        result = diff_checkpoints(
            load_checkpoints(args.run_a), load_checkpoints(args.run_b)
        )
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    divergence = result.divergence
    if (
        args.replay
        and divergence is not None
        and not divergence.deltas
        and divergence.reason == "digest"
    ):
        import tempfile
        from pathlib import Path

        rate = (
            divergence.event_a.rate
            if divergence.event_a is not None
            else divergence.event_b.rate if divergence.event_b is not None else None
        )
        try:
            with tempfile.TemporaryDirectory(prefix="repro-diff-") as tmp:
                replay = diff_checkpoints(
                    replay_trial(
                        args.run_a, divergence.trial, rate, Path(tmp) / "a"
                    ),
                    replay_trial(
                        args.run_b, divergence.trial, rate, Path(tmp) / "b"
                    ),
                )
                if replay.divergence is not None and replay.divergence.deltas:
                    result = dataclasses.replace(
                        result,
                        divergence=dataclasses.replace(
                            divergence, deltas=replay.divergence.deltas
                        ),
                    )
                elif replay.identical:
                    result = dataclasses.replace(
                        result,
                        notes=result.notes
                        + (
                            "note: replaying the divergent trial from both"
                            " sources produced identical tensors — the"
                            " recorded divergence is not reproducible from"
                            " the stored specs (e.g. an injected recorder"
                            " perturbation, or environment drift)",
                        ),
                    )
        except (OSError, ValueError) as error:
            print(f"note: replay unavailable: {error}", file=sys.stderr)
    if args.json:
        print(diff_report_json(result), end="")
    else:
        print(
            render_diff(result, label_a=args.run_a, label_b=args.run_b), end=""
        )
    return 0 if result.identical else 1


def _handle_inspect(args: argparse.Namespace) -> int:
    from repro.obs.diff import load_checkpoints
    from repro.obs.inspect import (
        render_storyboard,
        storyboard_json,
        trial_storyboard,
    )

    try:
        story = trial_storyboard(
            load_checkpoints(args.run), args.trial, rate=args.rate
        )
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(storyboard_json(story), end="")
    else:
        print(render_storyboard(story, max_probes=args.max_probes), end="")
    return 0


def _handle_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import collect_results, render_report

    text = render_report(collect_results(args.directory))
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _handle_align(args: argparse.Namespace) -> int:
    scenario = Scenario(
        ScenarioConfig(channel=ChannelKind(args.channel), snr_db=args.snr_db)
    )
    print(scenario)
    with ExitStack() as stack:
        if args.trace:
            try:
                recorder = stack.enter_context(TraceRecorder(args.trace))
            except OSError as error:
                print(f"error: cannot write trace {args.trace}: {error}", file=sys.stderr)
                return 2
        else:
            recorder = MetricsRecorder()
        profiler = None
        if args.profile:
            from repro.obs import ProfilingRecorder

            profiler = ProfilingRecorder(inner=recorder, mode=args.profile_mode)
        stack.enter_context(use_recorder(profiler if profiler is not None else recorder))
        outcomes = run_trial(
            scenario,
            standard_schemes(),
            search_rate=args.rate,
            rng=np.random.default_rng(args.seed),
        )
    print(f"{'scheme':10s} {'pair':>12s} {'loss dB':>8s} {'measured':>9s}")
    for name, outcome in outcomes.items():
        pair = outcome.result.selected
        print(
            f"{name:10s} ({pair.tx_index:3d},{pair.rx_index:4d})"
            f" {outcome.loss_db:8.2f} {outcome.result.measurements_used:9d}"
        )
    _print_solver_diagnostics(recorder)
    if profiler is not None:
        from repro.obs import render_profile

        print()
        print(render_profile(profiler, top=args.profile_top))
    if args.trace:
        print(f"\nwrote trace {args.trace} (inspect with `repro trace summarize`)")
    return 0


def _print_solver_diagnostics(recorder: MetricsRecorder) -> None:
    """Convergence digest of the penalized-ML solves behind `Proposed`."""
    metrics = recorder.metrics
    solves = int(metrics.counter("estimator.ml.solves"))
    if not solves:
        return
    iterations = int(metrics.counter("estimator.ml.iterations"))
    converged = int(metrics.counter("estimator.ml.converged"))
    print(
        f"\nml-covariance solver: {solves} solves,"
        f" {iterations} iterations ({iterations / solves:.1f}/solve),"
        f" converged {converged}/{solves} ({100 * converged / solves:.0f}%)"
    )


def _handle_trace_summarize(args: argparse.Namespace) -> int:
    from repro.obs import render_trace_summary, summarize_trace_file

    try:
        summary = summarize_trace_file(args.trace_file)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(render_trace_summary(summary, title=f"Trace summary — {args.trace_file}"))
    return 0


def _handle_trace_export(args: argparse.Namespace) -> int:
    from repro.obs import chrome_trace, read_trace, write_chrome_trace

    out = args.out if args.out else f"{args.trace_file}.chrome.json"
    try:
        records = read_trace(args.trace_file)
        payload = chrome_trace(records)
        write_chrome_trace(records, out)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    events = len(payload["traceEvents"])
    print(f"wrote {out} ({events} trace events; open in chrome://tracing or Perfetto)")
    return 0


def _handle_metrics_export(args: argparse.Namespace) -> int:
    from repro.obs import read_trace, registry_from_trace, render_openmetrics

    try:
        registry = registry_from_trace(read_trace(args.trace_file))
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    text = render_openmetrics(registry)
    if args.out:
        from repro.obs import write_openmetrics

        write_openmetrics(registry, args.out)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level:
        configure_logging(args.log_level)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like a
        # well-behaved unix filter.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())

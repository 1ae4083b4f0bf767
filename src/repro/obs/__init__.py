"""Observability layer: structured tracing, metrics, progress, logging.

Instrumented code (solvers, trial runners, sweeps) talks to the *active*
recorder — :class:`NullRecorder` by default, so observation is strictly
opt-in and provably non-perturbing: no recorder touches RNG state, and
with the default recorder every seeded outcome is bit-identical to the
uninstrumented code.

Typical use::

    from repro.obs import TraceRecorder, use_recorder

    with TraceRecorder("run.jsonl") as recorder, use_recorder(recorder):
        run_trials(scenario, schemes, 0.1, 100)
    # then: repro trace summarize run.jsonl

See ``docs/observability.md`` for the event schema and recipes.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_namespace

if TYPE_CHECKING:
    from repro.obs.checkpoint import (
        CHECKPOINT_SCHEMA,
        CheckpointEvent,
        CheckpointRecorder,
        CheckpointSpec,
        array_digest,
        find_checkpointer,
    )
    from repro.obs.diff import (
        DiffResult,
        Divergence,
        diff_checkpoints,
        diff_runs,
        load_checkpoints,
        render_diff,
        replay_trial,
    )
    from repro.obs.export import (
        chrome_trace,
        chrome_trace_from_file,
        validate_chrome_trace,
        write_chrome_trace,
    )
    from repro.obs.inspect import render_storyboard, storyboard_json, trial_storyboard
    from repro.obs.log import configure_logging, get_logger
    from repro.obs.metrics import MetricsRegistry, percentile, timer_stats
    from repro.obs.openmetrics import (
        parse_openmetrics,
        registry_from_trace,
        render_openmetrics,
        write_openmetrics,
    )
    from repro.obs.progress import (
        ProgressCallback,
        ProgressEvent,
        ProgressReporter,
        print_progress,
    )
    from repro.obs.recorder import (
        NULL_RECORDER,
        MetricsRecorder,
        NullRecorder,
        Recorder,
        Span,
        get_recorder,
        use_recorder,
    )
    from repro.obs.summary import (
        render_trace_summary,
        summarize_trace,
        summarize_trace_file,
    )
    from repro.obs.trace import (
        TRACE_SCHEMA,
        TRACE_SCHEMA_V1,
        TraceRecorder,
        read_trace,
        read_trace_tolerant,
    )

__all__ = [
    "Recorder",
    "NullRecorder",
    "MetricsRecorder",
    "TraceRecorder",
    "Span",
    "NULL_RECORDER",
    "get_recorder",
    "use_recorder",
    "MetricsRegistry",
    "timer_stats",
    "percentile",
    "ProgressEvent",
    "ProgressCallback",
    "ProgressReporter",
    "print_progress",
    "read_trace",
    "read_trace_tolerant",
    "TRACE_SCHEMA",
    "TRACE_SCHEMA_V1",
    "CHECKPOINT_SCHEMA",
    "CheckpointEvent",
    "CheckpointRecorder",
    "CheckpointSpec",
    "array_digest",
    "find_checkpointer",
    "DiffResult",
    "Divergence",
    "diff_checkpoints",
    "diff_runs",
    "load_checkpoints",
    "render_diff",
    "replay_trial",
    "trial_storyboard",
    "render_storyboard",
    "storyboard_json",
    "summarize_trace",
    "summarize_trace_file",
    "render_trace_summary",
    "chrome_trace",
    "chrome_trace_from_file",
    "write_chrome_trace",
    "validate_chrome_trace",
    "render_openmetrics",
    "write_openmetrics",
    "parse_openmetrics",
    "registry_from_trace",
    "configure_logging",
    "get_logger",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.obs.checkpoint": (
            "CHECKPOINT_SCHEMA",
            "CheckpointEvent",
            "CheckpointRecorder",
            "CheckpointSpec",
            "array_digest",
            "find_checkpointer",
        ),
        "repro.obs.diff": (
            "DiffResult",
            "Divergence",
            "diff_checkpoints",
            "diff_runs",
            "load_checkpoints",
            "render_diff",
            "replay_trial",
        ),
        "repro.obs.export": (
            "chrome_trace",
            "chrome_trace_from_file",
            "validate_chrome_trace",
            "write_chrome_trace",
        ),
        "repro.obs.inspect": (
            "render_storyboard",
            "storyboard_json",
            "trial_storyboard",
        ),
        "repro.obs.log": ("configure_logging", "get_logger"),
        "repro.obs.metrics": ("MetricsRegistry", "percentile", "timer_stats"),
        "repro.obs.openmetrics": (
            "parse_openmetrics",
            "registry_from_trace",
            "render_openmetrics",
            "write_openmetrics",
        ),
        "repro.obs.progress": (
            "ProgressCallback",
            "ProgressEvent",
            "ProgressReporter",
            "print_progress",
        ),
        "repro.obs.recorder": (
            "NULL_RECORDER",
            "MetricsRecorder",
            "NullRecorder",
            "Recorder",
            "Span",
            "get_recorder",
            "use_recorder",
        ),
        "repro.obs.summary": (
            "render_trace_summary",
            "summarize_trace",
            "summarize_trace_file",
        ),
        "repro.obs.trace": (
            "TRACE_SCHEMA",
            "TRACE_SCHEMA_V1",
            "TraceRecorder",
            "read_trace",
            "read_trace_tolerant",
        ),
    },
)

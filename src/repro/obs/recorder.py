"""Recorder protocol, the zero-overhead null default, and the active-recorder context.

Instrumented code never imports a concrete backend; it asks for the
*active* recorder (:func:`get_recorder`, a :class:`NullRecorder` unless a
caller installed something with :func:`use_recorder`) and talks to the
small :class:`Recorder` surface:

* ``span(name, **attrs)`` — a context manager timing a hierarchical
  region (trial, scheme, solver call);
* ``event(name, **attrs)`` — a point-in-time observation (one solver
  iteration, one merged worker);
* ``increment(name, value)`` / ``gauge(name, value)`` — metrics.

The contract instrumented code relies on: recorders observe, they never
perturb. No recorder method touches RNG state or feeds anything back
into the computation, so seeded outcomes are bit-identical whether the
active recorder is the null default, a metrics aggregator, or a JSONL
tracer. Hot loops additionally guard per-iteration calls with
``recorder.enabled`` so the disabled path costs one attribute load.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "Recorder",
    "NullRecorder",
    "MetricsRecorder",
    "Span",
    "NULL_RECORDER",
    "get_recorder",
    "use_recorder",
]


class Span:
    """One timed, attributed region; returned by ``Recorder.span``.

    Supports ``annotate(**attrs)`` to attach results discovered while the
    span is open (iteration counts, losses, convergence flags).
    """

    __slots__ = ("name", "attrs", "span_id", "parent_id", "depth", "start", "_recorder")

    def __init__(
        self,
        recorder: "MetricsRecorder",
        name: str,
        attrs: Dict[str, Any],
        span_id: int,
        parent_id: Optional[int],
        depth: int,
    ) -> None:
        self._recorder = recorder
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.start = 0.0

    def annotate(self, **attrs: Any) -> "Span":
        """Attach attributes to the span before it closes."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.start = perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._recorder._end_span(self, perf_counter() - self.start)


class _NullSpan:
    """Shared no-op span: the disabled path allocates nothing per call."""

    __slots__ = ()

    def annotate(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _NullScope:
    """Shared no-op scope for the checkpoint surface (trial/scheme scoping)."""

    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SCOPE = _NullScope()


class Recorder:
    """Base recorder: the no-op surface instrumented code programs against."""

    enabled: bool = False

    #: True only on recorders that digest pipeline stages (see
    #: :mod:`repro.obs.checkpoint`). Hot paths guard ``checkpoint`` calls
    #: with this flag so the disabled path costs one attribute load.
    checkpoints_enabled: bool = False

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        """The backing registry, if this recorder aggregates metrics."""
        return None

    def span(self, name: str, **attrs: Any):
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        return None

    def increment(self, name: str, value: float = 1.0) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    # -- checkpoint surface (no-ops unless a CheckpointRecorder is active)

    def checkpoint(self, stage: str, arrays: Any, stream: Optional[str] = None, **attrs: Any):
        """Digest one pipeline stage's arrays; no-op on the base recorder."""
        return None

    def trial_scope(self, trial: Optional[int], rate: Optional[float] = None):
        """Scope checkpoints to one (trial, search rate); no-op by default."""
        return _NULL_SCOPE

    def rate_scope(self, rates: Sequence[float]):
        """Scope checkpoints to several search rates of the current trial;
        no-op by default."""
        return _NULL_SCOPE

    def scheme_scope(self, name: str):
        """Attribute checkpoints to one scheme; no-op by default."""
        return _NULL_SCOPE

    def close(self) -> None:
        return None


class NullRecorder(Recorder):
    """The default: every operation is a no-op and ``enabled`` is False."""


NULL_RECORDER = NullRecorder()


class MetricsRecorder(Recorder):
    """Aggregates spans/counters/gauges into a :class:`MetricsRegistry`.

    Span durations land in the timer named after the span; events count
    into the counter of the same name (so per-iteration solver events
    aggregate into iteration totals for free).
    """

    enabled = True

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._stack: List[Span] = []
        self._next_span_id = 1

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    def span(self, name: str, **attrs: Any) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            self,
            name,
            attrs,
            span_id=self._next_span_id,
            parent_id=parent.span_id if parent else None,
            depth=len(self._stack),
        )
        self._next_span_id += 1
        self._stack.append(span)
        return span

    def _end_span(self, span: Span, duration: float) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # out-of-order exit; drop through it
            while self._stack and self._stack[-1] is not span:
                self._stack.pop()
            self._stack.pop()
        self._metrics.record_duration(span.name, duration)
        self._on_span_end(span, duration)

    def _on_span_end(self, span: Span, duration: float) -> None:
        """Backend hook (JSONL tracer overrides this)."""

    def event(self, name: str, **attrs: Any) -> None:
        self._metrics.increment(name)
        self._on_event(name, attrs)

    def _on_event(self, name: str, attrs: Dict[str, Any]) -> None:
        """Backend hook (JSONL tracer overrides this)."""

    def increment(self, name: str, value: float = 1.0) -> None:
        self._metrics.increment(name, value)
        self._on_counter(name, value)

    def _on_counter(self, name: str, value: float) -> None:
        """Backend hook (JSONL tracer overrides this)."""

    def gauge(self, name: str, value: float) -> None:
        self._metrics.set_gauge(name, value)
        self._on_gauge(name, value)

    def _on_gauge(self, name: str, value: float) -> None:
        """Backend hook (JSONL tracer overrides this)."""


_ACTIVE: ContextVar[Recorder] = ContextVar("repro_obs_active_recorder", default=NULL_RECORDER)


def get_recorder() -> Recorder:
    """The recorder instrumented code should talk to right now."""
    return _ACTIVE.get()


@contextmanager
def use_recorder(recorder: Recorder) -> Iterator[Recorder]:
    """Install ``recorder`` as the active recorder for the ``with`` block."""
    token = _ACTIVE.set(recorder)
    try:
        yield recorder
    finally:
        _ACTIVE.reset(token)

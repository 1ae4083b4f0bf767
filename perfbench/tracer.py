"""In-memory span recorder and function wrappers for the traced run.

The benchmark measures layers from outside the program: it replaces
functions and methods of ``repro`` with wrappers that open a span around
each call, and puts the originals back afterwards. Nothing under ``src/``
knows it is being traced.

A span is ``(id, name, start, end, parent, run)``. Spans stay in memory
and are written out once, when the run (or a forked campaign worker)
ends. Only the outermost call of a layer opens a span: a call into a
layer that is already open on the stack (``measure_many`` ->
``measure_pairs``, or recursion) runs untraced and is not counted
again, so every layer's call count and self time are exclusive.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "CLOCK",
    "LayerRollup",
    "Patcher",
    "Span",
    "Tracer",
    "load_spool",
    "rollup",
    "self_times",
]

#: ``perf_counter`` is CLOCK_MONOTONIC on Linux: one system-wide clock, so
#: spans from forked workers line up with the launcher's.
CLOCK = time.perf_counter


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str


class Tracer:
    """Records spans for one process; counters ride along with them."""

    def __init__(self, run_id: str, spool_dir: Optional[Path] = None) -> None:
        self.run_id = run_id
        self.spool_dir = spool_dir
        #: wrappers pass straight through while this is False
        self.enabled = True
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self._stack: List[Span] = []
        self._open: Counter = Counter()
        self._next_id = 0

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        self._next_id += 1
        span = Span(self._next_id, name, CLOCK(), 0.0, parent, self.run_id)
        self._stack.append(span)
        self._open[name] += 1
        return span

    def close(self, span: Span) -> None:
        span.end = CLOCK()
        # Spans close in LIFO order; an exception unwinding through
        # several wrappers closes each one on the way out.
        while self._stack:
            top = self._stack.pop()
            self._open[top.name] -= 1
            if top is span:
                break
        self.spans.append(span)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def restart(self, run_id: str) -> None:
        """Forget inherited state: called first thing in a forked worker."""
        self.run_id = run_id
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._open = Counter()

    def spool(self) -> Optional[Path]:
        """Write this process's spans and counters to the spool directory."""
        if self.spool_dir is None:
            return None
        path = self.spool_dir / f"spans-{self.run_id}-{os.getpid()}.json"
        payload = {
            "run": self.run_id,
            "spans": [asdict(span) for span in self.spans],
            "counters": dict(self.counters),
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Optional[Callable] = None,
        span: bool = True,
    ) -> Callable:
        """``fn`` with a span named ``name`` around its outermost calls.

        ``observe(args, kwargs)``, when given, runs before the call and
        returns ``None`` or a callback that receives the result after it;
        it is how a layer counts work (pairs, iterations, cache hits).
        With ``span=False`` the wrapper only counts.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled or tracer._open[name] > 0:
                return fn(*args, **kwargs)
            after = observe(args, kwargs) if observe is not None else None
            if not span:
                result = fn(*args, **kwargs)
            else:
                record = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(record)
            if after is not None:
                after(result)
            return result

        traced.__perfbench_original__ = fn  # type: ignore[attr-defined]
        return traced


class Patcher:
    """Installs wrappers and puts every original back on :meth:`restore`.

    A module-level function is also replaced wherever another loaded
    module bound it by ``from x import f``, found by identity, so the
    caller's namespace sees the wrapper too.
    """

    def __init__(self, module_prefix: str = "repro") -> None:
        self.module_prefix = module_prefix
        self._undo: List[Tuple[Any, str, bool, Any]] = []

    def patch_attribute(self, owner: Any, attr: str, replacement: Any) -> None:
        owned = isinstance(owner, type) and attr in owner.__dict__
        original = owner.__dict__[attr] if owned else getattr(owner, attr)
        self._undo.append((owner, attr, owned or not isinstance(owner, type), original))
        setattr(owner, attr, replacement)

    def patch_function(self, module: Any, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        original = getattr(module, attr)
        replacement = wrap(original)
        for other in self._modules():
            namespace = vars(other)
            for name, value in list(namespace.items()):
                if value is original:
                    self.patch_attribute(other, name, replacement)
        if getattr(module, attr) is not replacement:
            self.patch_attribute(module, attr, replacement)

    def patch_method(self, cls: type, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        """Wrap a method, or the getter of a property."""
        original = cls.__dict__[attr]
        if isinstance(original, property):
            replacement: Any = property(wrap(original.fget), original.fset, original.fdel)
        else:
            replacement = wrap(original)
        self.patch_attribute(cls, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, owned, original = self._undo.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _modules(self) -> Iterable[Any]:
        prefix = self.module_prefix
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == prefix or name.startswith(prefix + "."))
        ]


def _covered(intervals: List[Tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if min(b, end) > max(a, start)
    )
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for a, b in clipped:
        if current_start is None or a > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = a, b
        else:
            current_end = max(current_end, b)
    if current_start is not None:
        total += current_end - current_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[Tuple[str, int], float]:
    """Self time per span, keyed by ``(run, id)``.

    A span's self time is its duration minus the part of its interval
    that its child spans cover; children may overlap each other.
    """
    spans = list(spans)
    children: Dict[Tuple[str, int], List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault((span.run, span.parent), []).append((span.start, span.end))
    return {
        (span.run, span.id): (span.end - span.start)
        - _covered(children.get((span.run, span.id), []), span.start, span.end)
        for span in spans
    }


@dataclass
class LayerRollup:
    layer: str
    calls: int
    self_s: float


def rollup(spans: Iterable[Span]) -> Dict[str, LayerRollup]:
    """Calls and self time per layer.

    Calls count only spans with no ancestor of the same layer, so a
    nested or recursive call of a layer is not counted twice; its self
    time still adds up exactly once because self times are exclusive.
    """
    spans = list(spans)
    by_key = {(span.run, span.id): span for span in spans}
    own = self_times(spans)
    result: Dict[str, LayerRollup] = {}
    for span in spans:
        entry = result.setdefault(span.name, LayerRollup(span.name, 0, 0.0))
        entry.self_s += own[(span.run, span.id)]
        ancestor = by_key.get((span.run, span.parent)) if span.parent is not None else None
        while ancestor is not None and ancestor.name != span.name:
            ancestor = (
                by_key.get((ancestor.run, ancestor.parent))
                if ancestor.parent is not None
                else None
            )
        if ancestor is None:
            entry.calls += 1
    return result


def load_spool(spool_dir: Path) -> Tuple[List[Span], Counter]:
    """Every span and counter the forked workers spooled."""
    spans: List[Span] = []
    counters: Counter = Counter()
    for path in sorted(spool_dir.glob("spans-*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        spans.extend(Span(**entry) for entry in payload["spans"])
        counters.update(payload["counters"])
    return spans, counters

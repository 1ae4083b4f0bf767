"""Divergence bisection over flight-recorder checkpoints: ``repro diff``.

Two runs that *should* be bit-identical (serial vs batched, pooled vs
in-process, local vs remote campaign) are compared event-for-event on their checkpoint digests (:mod:`repro.obs.checkpoint`). The
diff walks both event sequences in canonical key order — ``(search rate,
trial, per-trial sequence)`` — and reports the **first** divergent
event: the earliest pipeline stage of the earliest trial where the two
runs stopped agreeing. Everything downstream of that event is noise
(divergence propagates), so one key is the whole story.

Sources are auto-detected by :func:`load_checkpoints`:

* a ``.jsonl`` trace file (``TraceRecorder`` + ``CheckpointRecorder``) —
  parsed tolerantly, so a killed run's truncated tail still diffs;
* a campaign shard-store directory — digests come from the artifacts'
  additive ``digests`` manifest blocks, no re-execution needed.

When both runs were recorded with tensor spill, the diff goes one level
deeper: it loads the spilled ``.npz`` pair for the divergent event and
names the exact array, coordinate, both values, and their ULP distance.
Without spill, :func:`replay_trial` re-executes just the divergent trial
(store sources carry their full scenario spec; trace sources need a
``run_meta`` header) with spill forced on, producing those tensors after
the fact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs.checkpoint import CheckpointEvent, CheckpointSpec, _rate_token
from repro.obs.log import get_logger
from repro.obs.trace import read_trace_tolerant

__all__ = [
    "ArrayDelta",
    "Divergence",
    "DiffResult",
    "load_checkpoints",
    "diff_checkpoints",
    "diff_runs",
    "replay_trial",
    "render_diff",
    "ulp_distance",
]

logger = get_logger("obs.diff")


def ulp_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise distance in units of the last place.

    ``|a - b| / spacing(max(|a|, |b|, tiny))`` — 1.0 means the values are
    one representable float apart; 0.0 means bit-identical magnitudes.
    Complex inputs compare by magnitude of the difference against the
    spacing at the larger magnitude.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    mag = np.maximum(np.abs(a), np.abs(b)).astype(float)
    tiny = np.finfo(float).tiny
    return np.abs(a - b).astype(float) / np.spacing(np.maximum(mag, tiny))


@dataclass(frozen=True)
class ArrayDelta:
    """Exact coordinate of the first differing element of one array."""

    name: str
    index: Tuple[int, ...]
    value_a: Any
    value_b: Any
    ulp: float
    differing: int

    def to_payload(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "index": list(self.index),
            "value_a": repr(self.value_a),
            "value_b": repr(self.value_b),
            "ulp": self.ulp,
            "differing": self.differing,
        }


@dataclass(frozen=True)
class Divergence:
    """The first event where two runs disagree."""

    key: Tuple[str, int, int]
    reason: str  # "digest" | "stage" | "missing_a" | "missing_b"
    event_a: Optional[CheckpointEvent]
    event_b: Optional[CheckpointEvent]
    deltas: Tuple[ArrayDelta, ...] = ()

    @property
    def stage(self) -> str:
        event = self.event_a or self.event_b
        return event.stage if event is not None else "?"

    @property
    def trial(self) -> int:
        return self.key[1]

    def to_payload(self) -> Dict[str, Any]:
        return {
            "key": {"rate": self.key[0], "trial": self.key[1], "seq": self.key[2]},
            "reason": self.reason,
            "stage": self.stage,
            "trial": self.trial,
            "event_a": self.event_a.to_payload() if self.event_a else None,
            "event_b": self.event_b.to_payload() if self.event_b else None,
            "deltas": [delta.to_payload() for delta in self.deltas],
        }


@dataclass(frozen=True)
class DiffResult:
    """Outcome of comparing two checkpoint sequences."""

    identical: bool
    compared: int
    matched: int
    divergence: Optional[Divergence] = None
    divergent_keys: int = 0
    notes: Tuple[str, ...] = field(default=())

    def to_payload(self) -> Dict[str, Any]:
        return {
            "identical": self.identical,
            "compared": self.compared,
            "matched": self.matched,
            "divergent_keys": self.divergent_keys,
            "divergence": self.divergence.to_payload() if self.divergence else None,
            "notes": list(self.notes),
        }


def _is_trace_file(path: Path) -> bool:
    return path.is_file() and path.suffix in (".jsonl", ".ndjson")


def _is_shard_store(path: Path) -> bool:
    return path.is_dir() and (path / "shards").is_dir()


def load_checkpoints(source: Union[str, Path]) -> List[CheckpointEvent]:
    """Load every checkpoint event from a run source, in recorded order.

    ``source`` is either a JSONL trace file or a campaign shard-store
    directory (every stored plan's shards contribute their digest
    manifests). Raises ``ValueError`` when the source is neither, or
    holds no checkpoint events at all.
    """
    path = Path(source)
    if _is_trace_file(path):
        records, skipped = read_trace_tolerant(path)
        if skipped:
            logger.warning("%s: skipped %d malformed trace line(s)", path, skipped)
        events = [
            CheckpointEvent.from_payload(record)
            for record in records
            if record.get("type") == "checkpoint"
        ]
    elif _is_shard_store(path):
        events = _load_store_checkpoints(path)
    else:
        raise ValueError(
            f"{path}: not a trace file (.jsonl) or a shard store directory"
        )
    if not events:
        raise ValueError(
            f"{path}: no checkpoint events — was the run recorded with the"
            " flight recorder enabled (--checkpoints)?"
        )
    return events


def _load_store_checkpoints(root: Path) -> List[CheckpointEvent]:
    """Checkpoint events from every shard artifact of every stored plan."""
    from repro.campaign.store import ShardStore

    store = ShardStore(root)
    events: List[CheckpointEvent] = []
    for plan in store.load_manifests().values():
        for shard in plan.shards:
            manifest = store.digest_manifest(shard)
            if manifest is None:
                continue
            events.extend(CheckpointEvent.from_payload(p) for p in manifest)
    return events


def _sort_key(key: Tuple[str, int, int]) -> Tuple[float, int, int]:
    """Order canonical keys numerically: rate, then trial, then seq."""
    rate_token, trial, seq = key
    if rate_token == "none":
        rate = float("-inf")
    else:
        rate = float(rate_token.replace("p", ".").replace("m", "-"))
    return (rate, trial, seq)


def _index_events(
    events: Sequence[CheckpointEvent], label: str
) -> Dict[Tuple[str, int, int], CheckpointEvent]:
    indexed: Dict[Tuple[str, int, int], CheckpointEvent] = {}
    for event in events:
        if event.key in indexed:
            logger.warning("%s: duplicate checkpoint key %s; keeping first", label, event.key)
            continue
        indexed[event.key] = event
    return indexed


def _spill_deltas(
    event_a: CheckpointEvent, event_b: CheckpointEvent
) -> Tuple[ArrayDelta, ...]:
    """ULP-level deltas from the two events' spilled tensors, if both exist."""
    if event_a.spill is None or event_b.spill is None:
        return ()
    path_a, path_b = Path(event_a.spill), Path(event_b.spill)
    if not path_a.is_file() or not path_b.is_file():
        return ()
    deltas: List[ArrayDelta] = []
    with np.load(path_a) as npz_a, np.load(path_b) as npz_b:
        for name in npz_a.files:
            if name not in npz_b.files:
                continue
            array_a, array_b = npz_a[name], npz_b[name]
            if array_a.shape != array_b.shape or array_a.dtype != array_b.dtype:
                deltas.append(
                    ArrayDelta(
                        name=name,
                        index=(),
                        value_a=f"{array_a.dtype}{array_a.shape}",
                        value_b=f"{array_b.dtype}{array_b.shape}",
                        ulp=float("inf"),
                        differing=-1,
                    )
                )
                continue
            unequal = array_a != array_b
            # NaNs compare unequal to themselves; a NaN in the same slot
            # on both sides is agreement for diff purposes.
            both_nan = np.zeros_like(unequal)
            if np.issubdtype(array_a.dtype, np.inexact):
                both_nan = np.isnan(array_a) & np.isnan(array_b)
            unequal = unequal & ~both_nan
            if not unequal.any():
                continue
            flat = int(np.argmax(unequal.reshape(-1)))
            index = tuple(int(i) for i in np.unravel_index(flat, array_a.shape))
            value_a = array_a[index]
            value_b = array_b[index]
            ulp = float(ulp_distance(np.asarray(value_a), np.asarray(value_b)))
            deltas.append(
                ArrayDelta(
                    name=name,
                    index=index,
                    value_a=value_a,
                    value_b=value_b,
                    ulp=ulp,
                    differing=int(unequal.sum()),
                )
            )
    return tuple(deltas)


def diff_checkpoints(
    events_a: Sequence[CheckpointEvent],
    events_b: Sequence[CheckpointEvent],
) -> DiffResult:
    """Compare two checkpoint sequences; report the first divergence.

    Events pair up by canonical key ``(rate, trial, seq)`` — recording
    order across engines (serial, batched, parallel, campaign) maps to
    the same keys, so this comparison is engine-agnostic. The first key
    (in rate/trial/seq order) that is missing on one side, names a
    different stage, or carries a different digest is the divergence;
    every later divergent key is counted but not detailed.

    Digests compare only under one checkpoint schema: two sequences
    recorded under different schemas (or one mixing schemas) raise
    ``ValueError`` instead of reporting a divergence at every changed
    stage.
    """
    schemas_a = sorted({event.schema for event in events_a})
    schemas_b = sorted({event.schema for event in events_b})
    if len(set(schemas_a) | set(schemas_b)) > 1:
        raise ValueError(
            f"run A was recorded under checkpoint schema {', '.join(schemas_a)}"
            f" and run B under {', '.join(schemas_b)}; digests compare only"
            " within one schema, so re-record the older run"
        )
    index_a = _index_events(events_a, "run A")
    index_b = _index_events(events_b, "run B")
    keys = sorted(set(index_a) | set(index_b), key=_sort_key)
    matched = 0
    first: Optional[Divergence] = None
    divergent = 0
    for key in keys:
        event_a = index_a.get(key)
        event_b = index_b.get(key)
        reason: Optional[str] = None
        if event_a is None:
            reason = "missing_a"
        elif event_b is None:
            reason = "missing_b"
        elif event_a.stage != event_b.stage:
            reason = "stage"
        elif event_a.digest != event_b.digest:
            reason = "digest"
        if reason is None:
            matched += 1
            continue
        divergent += 1
        if first is None:
            deltas = (
                _spill_deltas(event_a, event_b)
                if event_a is not None and event_b is not None
                else ()
            )
            first = Divergence(
                key=key, reason=reason, event_a=event_a, event_b=event_b, deltas=deltas
            )
    return DiffResult(
        identical=first is None,
        compared=len(keys),
        matched=matched,
        divergence=first,
        divergent_keys=divergent,
    )


def diff_runs(
    source_a: Union[str, Path], source_b: Union[str, Path]
) -> DiffResult:
    """Load both sources and diff them (the ``repro diff`` engine)."""
    return diff_checkpoints(load_checkpoints(source_a), load_checkpoints(source_b))


def replay_trial(
    source: Union[str, Path],
    trial: int,
    rate: Optional[float] = None,
    spill_dir: Union[str, Path, None] = None,
) -> List[CheckpointEvent]:
    """Re-execute one trial of a recorded run with tensor spill enabled.

    Works for shard-store sources (artifacts carry their full scenario
    spec) and for trace files whose header has a ``run_meta`` block with
    ``config``/``base_seed``/``schemes`` (written by ``repro run``).
    Replay is bit-identical to the original by the per-trial seeding
    contract, so the spilled tensors *are* the original run's tensors.
    Returns the replayed trial's checkpoint events (spill paths set).
    """
    path = Path(source)
    if _is_shard_store(path):
        config, specs, base_seed, rates = _replay_spec_from_store(path, trial, rate)
    elif _is_trace_file(path):
        config, specs, base_seed, rates = _replay_spec_from_trace(path)
    else:
        raise ValueError(f"{path}: not a replayable source")
    if rate is not None:
        rates = [float(rate)]
    if not rates:
        raise ValueError(f"{path}: no search rate recorded; pass one explicitly")

    from repro.campaign.plan import ShardSpec
    from repro.campaign.worker import execute_shard_in_process
    from repro.obs.recorder import get_recorder

    spec = CheckpointSpec(
        spill_dir=str(spill_dir) if spill_dir is not None else None,
        spill="all" if spill_dir is not None else "off",
    )
    events: List[CheckpointEvent] = []
    for search_rate in rates:
        shard = ShardSpec(config, tuple(specs), float(search_rate), base_seed, trial, 1)
        _, payloads = execute_shard_in_process(shard, None, spec, get_recorder(), False)
        events.extend(CheckpointEvent.from_payload(p) for p in payloads)
    return events


def _replay_spec_from_store(path: Path, trial: int, rate: Optional[float]):
    """Scenario config + scheme specs for one trial out of a shard store."""
    from repro.campaign.plan import CampaignPlan
    from repro.campaign.store import ShardStore

    # Cell plans' shards are UE ranges, not sweep trials: not replayable.
    covering = [
        shard
        for plan in ShardStore(path).load_manifests().values()
        if isinstance(plan, CampaignPlan)
        for shard in plan.shards
        if trial in shard.trial_indices
    ]
    for shard in covering:
        if rate is not None and _rate_token(rate) != _rate_token(shard.search_rate):
            continue
        return (
            shard.config,
            list(shard.schemes),
            shard.base_seed,
            [shard.search_rate]
            if rate is not None
            else sorted({s.search_rate for s in covering}),
        )
    raise ValueError(f"{path}: no stored shard covers trial {trial}")


def _replay_spec_from_trace(path: Path):
    """Scenario config + scheme specs from a trace header's run_meta."""
    from repro.sim.config import ScenarioConfig
    from repro.sim.parallel import SchemeSpec

    records, _ = read_trace_tolerant(path)
    header = next((r for r in records if r.get("type") == "trace"), None)
    meta = (header or {}).get("run_meta")
    if not isinstance(meta, Mapping) or "config" not in meta:
        raise ValueError(
            f"{path}: trace has no run_meta header with a scenario config;"
            " re-record with `repro run --checkpoints` or diff against the"
            " shard store instead"
        )
    config = ScenarioConfig.from_dict(meta["config"])
    specs = [
        SchemeSpec.of(entry["name"], **dict(entry.get("params", {})))
        for entry in meta.get("schemes", [])
    ]
    rates = [float(r) for r in meta.get("search_rates", [])]
    return config, specs, int(meta.get("base_seed", 0)), rates


def _format_value(value: Any) -> str:
    if isinstance(value, (complex, np.complexfloating)):
        return repr(complex(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return repr(value)


def render_diff(
    result: DiffResult, label_a: str = "run A", label_b: str = "run B"
) -> str:
    """Human-readable diff report (the ``repro diff`` text output)."""
    lines: List[str] = []
    if result.identical:
        lines.append(
            f"no divergence: {result.matched}/{result.compared} checkpoint"
            " events bit-identical"
        )
        lines.extend(result.notes)
        return "\n".join(lines) + "\n"
    divergence = result.divergence
    assert divergence is not None
    rate_token, trial, seq = divergence.key
    lines.append(
        f"DIVERGENCE at stage {divergence.stage!r}, trial {trial},"
        f" rate {rate_token}, seq {seq}"
    )
    lines.append(
        f"  {result.matched} matching event(s) before it;"
        f" {result.divergent_keys}/{result.compared} key(s) diverge in total"
    )
    if divergence.reason == "missing_a":
        lines.append(f"  event present only in {label_b}")
    elif divergence.reason == "missing_b":
        lines.append(f"  event present only in {label_a}")
    elif divergence.reason == "stage":
        assert divergence.event_a is not None and divergence.event_b is not None
        lines.append(
            f"  stage mismatch: {label_a} recorded"
            f" {divergence.event_a.stage!r}, {label_b} recorded"
            f" {divergence.event_b.stage!r}"
        )
    else:
        assert divergence.event_a is not None and divergence.event_b is not None
        event_a, event_b = divergence.event_a, divergence.event_b
        lines.append(f"  digest {label_a}: {event_a.digest}")
        lines.append(f"  digest {label_b}: {event_b.digest}")
        if event_a.scheme:
            lines.append(f"  scheme: {event_a.scheme}")
        if event_a.stream:
            lines.append(f"  rng stream: {event_a.stream}")
        for stat in sorted(set(event_a.stats) | set(event_b.stats)):
            value_a = event_a.stats.get(stat)
            value_b = event_b.stats.get(stat)
            if value_a != value_b:
                lines.append(f"  stat {stat}: {value_a!r} vs {value_b!r}")
    for delta in divergence.deltas:
        if delta.index == () and delta.differing < 0:
            lines.append(
                f"  array {delta.name!r}: shape/dtype mismatch"
                f" ({delta.value_a} vs {delta.value_b})"
            )
            continue
        lines.append(
            f"  array {delta.name!r}[{', '.join(map(str, delta.index))}]:"
            f" {_format_value(delta.value_a)} vs {_format_value(delta.value_b)}"
            f" ({delta.ulp:.1f} ULP; {delta.differing} element(s) differ)"
        )
    if not divergence.deltas and divergence.reason == "digest":
        lines.append(
            "  (no spilled tensors for this event — re-record with --spill,"
            " or use `repro diff --replay` to regenerate them)"
        )
    lines.extend(result.notes)
    return "\n".join(lines) + "\n"


def diff_report_json(result: DiffResult) -> str:
    """The diff result as a JSON document (``repro diff --json``)."""
    return json.dumps(result.to_payload(), indent=2, default=str) + "\n"

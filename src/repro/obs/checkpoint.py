"""Numeric flight recorder: stage-level checkpoint digests.

A :class:`CheckpointRecorder` wraps any other recorder (the JSONL tracer,
the metrics aggregator, or the null default) and additionally hashes the
simulation state at every instrumented pipeline stage: channel draw →
coupling/gain tables → per-probe measurements → estimator iterates →
beam selection → trial metrics. Each checkpoint is one
:class:`CheckpointEvent` carrying a blake2b digest over the stage's
arrays (bytes + shape + dtype), coarse numeric stats, and the stage's
scope — ``(search rate, trial index, per-trial sequence number)`` — so
two runs can be compared event-for-event no matter which engine produced
them (serial, batched, process-parallel, or a resumed campaign).

Like every recorder, a checkpoint recorder only *observes*: digests are
computed over copies/read-only views, nothing feeds back into the
computation, and no RNG state is touched — seeded outcomes are
bit-identical with checkpointing on or off.

Three opt-in extras:

* **Spill** (``spill="all"`` / ``spill_trials={...}``): the full tensors
  behind each digest are saved as ``.npz`` next to the digests, so
  :mod:`repro.obs.diff` can localize a divergence to an exact array
  coordinate with ULP-level deltas instead of just naming the stage.
* **Perturbation injection** (``perturb="TRIAL:STAGE:FLAT_INDEX"``, or
  the ``REPRO_CHECKPOINT_PERTURB`` environment variable): bumps one
  element of the recorder's *copy* of one stage's array by one ULP
  before digesting. The simulation itself is untouched — this is the
  detector's self-test (CI asserts ``repro diff`` localizes it), the
  checkpoint analogue of ``check_regression.py --inject-slowdown``.
* **Worker transport**: :meth:`CheckpointRecorder.payload` /
  :meth:`absorb` move recorded events across process boundaries so the
  parallel runner and campaign scheduler reproduce the exact sequence a
  serial run would have recorded.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
from contextlib import contextmanager
from functools import lru_cache
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.exceptions import ConfigurationError
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.utils.serialization import to_jsonable

__all__ = [
    "CHECKPOINT_SCHEMA",
    "PERTURB_ENV",
    "ArrayInfo",
    "CheckpointEvent",
    "CheckpointSpec",
    "CheckpointRecorder",
    "PerturbationSpec",
    "array_digest",
    "find_checkpointer",
]

#: Schema of checkpoint event payloads (JSONL records, shard digest
#: manifests, worker transport). Bump when the payload shape changes.
CHECKPOINT_SCHEMA = "repro.obs.checkpoint/1"

#: Environment variable carrying a perturbation spec (detector self-test).
PERTURB_ENV = "REPRO_CHECKPOINT_PERTURB"

#: Digest width in bytes (hex length 32) — matches the campaign layer's
#: shard digests so manifests read uniformly.
_DIGEST_SIZE = 16


@dataclass(frozen=True)
class ArrayInfo:
    """Shape/dtype of one named array under a digest."""

    name: str
    shape: Tuple[int, ...]
    dtype: str

    def to_payload(self) -> Dict[str, Any]:
        return {"name": self.name, "shape": list(self.shape), "dtype": self.dtype}


@dataclass(frozen=True)
class CheckpointEvent:
    """One recorded stage digest, fully scoped and orderable.

    The canonical identity of an event — what cross-run comparison keys
    on — is ``(rate, trial, seq)``; ``stage`` names what was hashed and
    must agree between runs at the same key. ``stream`` carries the RNG
    stream label (:func:`repro.utils.rng.labeled_spawn`) that fed the
    stage, so diff output can say "measurement stream of scheme X"
    instead of a bare index.
    """

    stage: str
    trial: int
    seq: int
    rate: Optional[float]
    digest: str
    arrays: Tuple[ArrayInfo, ...]
    stats: Dict[str, float]
    scheme: Optional[str] = None
    stream: Optional[str] = None
    spill: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def key(self) -> Tuple[str, int, int]:
        """Cross-run comparison key: (rate token, trial, sequence)."""
        return (_rate_token(self.rate), self.trial, self.seq)

    def to_payload(self) -> Dict[str, Any]:
        """JSON-serializable form (trace records, digest manifests)."""
        payload: Dict[str, Any] = {
            "schema": CHECKPOINT_SCHEMA,
            "stage": self.stage,
            "trial": self.trial,
            "seq": self.seq,
            "rate": self.rate,
            "digest": self.digest,
            "arrays": [info.to_payload() for info in self.arrays],
            "stats": dict(self.stats),
        }
        if self.scheme is not None:
            payload["scheme"] = self.scheme
        if self.stream is not None:
            payload["stream"] = self.stream
        if self.spill is not None:
            payload["spill"] = self.spill
        if self.attrs:
            payload["attrs"] = to_jsonable(self.attrs)
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "CheckpointEvent":
        """Rebuild an event from :meth:`to_payload` output."""
        rate = payload.get("rate")
        return cls(
            stage=str(payload["stage"]),
            trial=int(payload["trial"]),
            seq=int(payload["seq"]),
            rate=float(rate) if rate is not None else None,
            digest=str(payload["digest"]),
            arrays=tuple(
                ArrayInfo(
                    name=str(info["name"]),
                    shape=tuple(int(dim) for dim in info["shape"]),
                    dtype=str(info["dtype"]),
                )
                for info in payload.get("arrays", [])
            ),
            stats={str(k): float(v) for k, v in (payload.get("stats") or {}).items()},
            scheme=payload.get("scheme"),
            stream=payload.get("stream"),
            spill=payload.get("spill"),
            attrs=dict(payload.get("attrs") or {}),
        )


@lru_cache(maxsize=None)
def _rate_token(rate: Optional[float]) -> str:
    """Exact, filename-safe token for a search rate (``repr`` round-trips).

    Memoized: a run visits a handful of rates but tokenizes one per
    checkpoint event, on the trial hot path.
    """
    if rate is None:
        return "none"
    return repr(float(rate)).replace(".", "p").replace("-", "m")


_STAGE_SANITIZE = re.compile(r"[^A-Za-z0-9_.-]+")


@lru_cache(maxsize=None)
def _dtype_str(dtype: np.dtype) -> str:
    """``str(dtype)``, memoized — dtype stringification is ~4us a call
    and the digest hot path does it for every array of every event."""
    return str(dtype)


def _as_arrays(
    arrays: Union[np.ndarray, Mapping[str, np.ndarray]],
) -> List[Tuple[str, np.ndarray]]:
    """Normalize the ``arrays`` argument to ordered (name, ndarray) pairs.

    Non-array values (scalars, lists) are converted with ``np.asarray``;
    ndarrays pass through untouched (an exact-type fast path), so the
    digest hot path pays nothing for them.
    """
    # Exact-type check first: abc.Mapping isinstance costs ~3us a call
    # and every caller on the trial hot path passes a plain dict.
    if type(arrays) is dict or isinstance(arrays, Mapping):
        return [(str(name), _ndarray(value)) for name, value in arrays.items()]
    return [("value", _ndarray(arrays))]


def _ndarray(value: Any) -> np.ndarray:
    return value if type(value) is np.ndarray else np.asarray(value)


def _digest_named(
    named: Sequence[Tuple[str, np.ndarray]],
) -> Tuple[str, Tuple[ArrayInfo, ...], Dict[str, float]]:
    """Digest already-normalized (name, ndarray) pairs — the hot path.

    The hash covers, per array in order: its name, dtype string, shape,
    and C-contiguous bytes — so two stages agree iff their arrays are
    bit-identical. Stats (min/max/mean/l2) are computed over the
    concatenation of every array's magnitudes (complex arrays contribute
    ``|x|``) and exist purely as coarse human-readable context; the
    digest is the ground truth.

    This runs once per checkpoint event (hundreds per trial), so it leans
    on raw ufunc ``.reduce`` calls and a single metadata ``update`` per
    array instead of the friendlier NumPy wrappers — the hashed byte
    stream is unchanged, only the Python dispatch around it is thinner.
    """
    hasher = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    infos: List[ArrayInfo] = []
    magnitudes: List[np.ndarray] = []
    for name, value in named:
        contiguous = np.ascontiguousarray(value)
        dtype_str = _dtype_str(contiguous.dtype)
        shape = contiguous.shape
        hasher.update((name + dtype_str + repr(shape)).encode("utf-8"))
        # Zero-copy: feed the hasher the array's own buffer (C-contiguous
        # by construction) instead of a tobytes() copy.
        hasher.update(contiguous.data)
        infos.append(ArrayInfo(name=name, shape=shape, dtype=dtype_str))
        if contiguous.size:
            flat = contiguous.reshape(-1)
            if flat.dtype.kind == "c":
                magnitudes.append(np.abs(flat))
            else:
                magnitudes.append(flat.astype(np.float64, copy=False))
    if magnitudes:
        combined = magnitudes[0] if len(magnitudes) == 1 else np.concatenate(magnitudes)
        if combined.size <= 4:
            # Pure-Python stats for tiny payloads (per-probe events are
            # one or two scalars): four ufunc dispatches cost more than
            # the arithmetic. Bit-identical to the NumPy path at these
            # sizes (sequential reduction order).
            values = combined.tolist()
            total = square_sum = 0.0
            minimum = maximum = values[0]
            for value in values:
                if value < minimum:
                    minimum = value
                if value > maximum:
                    maximum = value
                total += value
                square_sum += value * value
            stats = {
                "min": minimum,
                "max": maximum,
                "mean": total / len(values),
                "l2": math.sqrt(square_sum),
            }
        else:
            total = float(np.add.reduce(combined))
            stats = {
                "min": float(np.minimum.reduce(combined)),
                "max": float(np.maximum.reduce(combined)),
                "mean": total / combined.size,
                "l2": math.sqrt(float(np.dot(combined, combined))),
            }
    else:
        stats = {"min": 0.0, "max": 0.0, "mean": 0.0, "l2": 0.0}
    return hasher.hexdigest(), tuple(infos), stats


def array_digest(
    arrays: Union[np.ndarray, Mapping[str, np.ndarray]],
) -> Tuple[str, Tuple[ArrayInfo, ...], Dict[str, float]]:
    """Digest one stage's arrays: blake2b hex + per-array info + stats.

    See :func:`_digest_named` for what the hash and stats cover; this is
    the public wrapper that first normalizes ``arrays`` to ordered
    (name, ndarray) pairs.
    """
    return _digest_named(_as_arrays(arrays))


@dataclass(frozen=True)
class PerturbationSpec:
    """One injected single-element perturbation: ``TRIAL:STAGE:FLAT_INDEX``.

    Applied to the *first* occurrence of ``stage`` in ``trial`` (every
    search rate — a tiny CI sweep has one or two, and the first divergent
    event is what diff reports either way). The element at ``flat_index``
    of the checkpoint's first array is moved one ULP toward ``+inf``
    (real part, for complex arrays) on the recorder's copy only.
    """

    trial: int
    stage: str
    flat_index: int

    @classmethod
    def parse(cls, text: str) -> "PerturbationSpec":
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigurationError(
                f"perturbation spec must be TRIAL:STAGE:FLAT_INDEX, got {text!r}"
            )
        try:
            return cls(trial=int(parts[0]), stage=parts[1], flat_index=int(parts[2]))
        except ValueError as error:
            raise ConfigurationError(f"bad perturbation spec {text!r}: {error}") from None

    def matches(self, stage: str, trial: int) -> bool:
        return stage == self.stage and trial == self.trial

    def apply(self, name: str, value: np.ndarray) -> np.ndarray:
        """A perturbed *copy* of ``value`` (the original is never touched)."""
        perturbed = np.array(value, copy=True)
        flat = perturbed.reshape(-1)
        index = self.flat_index % max(flat.size, 1)
        if np.iscomplexobj(flat):
            real = flat[index].real
            flat[index] = complex(np.nextafter(real, np.inf), flat[index].imag)
        elif np.issubdtype(flat.dtype, np.floating):
            flat[index] = np.nextafter(flat[index], np.inf)
        else:  # integer stages (beam indices): smallest representable bump
            flat[index] = flat[index] + 1
        return perturbed


@dataclass(frozen=True)
class CheckpointSpec:
    """Picklable checkpoint configuration shipped to worker processes.

    Workers rebuild a :class:`CheckpointRecorder` from this and send the
    recorded event payloads back with their results, so the parent's
    sequence is identical to a serial run's.
    """

    spill_dir: Optional[str] = None
    spill: str = "off"
    spill_trials: Tuple[int, ...] = ()
    perturb: Optional[str] = None

    def build(self, inner: Optional[Recorder] = None) -> "CheckpointRecorder":
        return CheckpointRecorder(
            inner=inner,
            spill_dir=self.spill_dir,
            spill=self.spill,
            spill_trials=set(self.spill_trials),
            perturb=self.perturb,
        )


class _TrialScope:
    """Context manager flipping the recorder's (trial, rate) scope."""

    __slots__ = ("_owner", "_trial", "_rate", "_saved")

    def __init__(self, owner: "CheckpointRecorder", trial: Optional[int], rate: Optional[float]):
        self._owner = owner
        self._trial = trial
        self._rate = rate
        self._saved: Tuple[Optional[int], Optional[float]] = (None, None)

    def __enter__(self) -> "_TrialScope":
        owner = self._owner
        self._saved = (owner._trial, owner._rate)
        owner._trial = self._trial
        owner._rate = self._rate
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._owner._trial, self._owner._rate = self._saved


class CheckpointRecorder(Recorder):
    """Wraps another recorder; adds stage-digest recording.

    All ordinary recorder traffic (spans, events, counters, gauges) is
    forwarded unchanged to ``inner``, so checkpointing composes with
    tracing, metrics, and profiling. Checkpoint events accumulate in
    :attr:`events` and — when a JSONL tracer is anywhere in the inner
    chain — are additionally streamed as ``{"type": "checkpoint"}``
    records under trace schema ``repro.obs/2``.
    """

    checkpoints_enabled = True

    def __init__(
        self,
        inner: Optional[Recorder] = None,
        spill_dir: Union[str, Path, None] = None,
        spill: str = "off",
        spill_trials: Optional[Set[int]] = None,
        perturb: Optional[str] = None,
    ) -> None:
        if spill not in ("off", "all"):
            raise ConfigurationError(f"spill must be 'off' or 'all', got {spill!r}")
        if spill == "all" and spill_dir is None:
            raise ConfigurationError("spill='all' needs a spill_dir")
        self.inner: Recorder = inner if inner is not None else NULL_RECORDER
        self.enabled = True
        self.events: List[CheckpointEvent] = []
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._spill_mode = spill
        self._spill_trials = set(spill_trials or ())
        if perturb is None:
            perturb = os.environ.get(PERTURB_ENV) or None
        self._perturb = PerturbationSpec.parse(perturb) if perturb else None
        self._perturb_done = False
        self._trial: Optional[int] = None
        self._rate: Optional[float] = None
        self._scheme: Optional[str] = None
        self._seq: Dict[Tuple[str, int], int] = {}
        self._sink = _find_checkpoint_sink(self.inner)

    # -- forwarded recorder surface -------------------------------------

    @property
    def metrics(self) -> Any:
        return self.inner.metrics

    def span(self, name: str, **attrs: Any) -> Any:
        return self.inner.span(name, **attrs)

    def event(self, name: str, **attrs: Any) -> None:
        self.inner.event(name, **attrs)

    def increment(self, name: str, value: float = 1.0) -> None:
        self.inner.increment(name, value)

    def gauge(self, name: str, value: float) -> None:
        self.inner.gauge(name, value)

    def close(self) -> None:
        self.inner.close()

    # -- scoping ---------------------------------------------------------

    def trial_scope(self, trial: Optional[int], rate: Optional[float] = None) -> _TrialScope:
        """Scope subsequent checkpoints to one (trial index, search rate)."""
        return _TrialScope(self, trial, rate)

    @contextmanager
    def scheme_scope(self, name: str) -> Iterator[None]:
        """Attribute subsequent checkpoints to one scheme."""
        saved = self._scheme
        self._scheme = name
        try:
            yield
        finally:
            self._scheme = saved

    # -- recording --------------------------------------------------------

    def checkpoint(
        self,
        stage: str,
        arrays: Union[np.ndarray, Mapping[str, np.ndarray]],
        stream: Optional[str] = None,
        **attrs: Any,
    ) -> CheckpointEvent:
        """Digest one stage's arrays under the current (trial, rate) scope."""
        trial = self._trial if self._trial is not None else -1
        rate = self._rate
        named = _as_arrays(arrays)
        if (
            self._perturb is not None
            and not self._perturb_done
            and self._perturb.matches(stage, trial)
        ):
            self._perturb_done = True
            name0, value0 = named[0]
            named = [(name0, self._perturb.apply(name0, value0))] + named[1:]
        digest, infos, stats = _digest_named(named)
        seq_key = (_rate_token(rate), trial)
        seq = self._seq.get(seq_key, 0)
        self._seq[seq_key] = seq + 1
        spill_path: Optional[str] = None
        if self._should_spill(trial):
            spill_path = self._spill(stage, trial, rate, seq, named)
        event = CheckpointEvent(
            stage=stage,
            trial=trial,
            seq=seq,
            rate=rate,
            digest=digest,
            arrays=infos,
            stats=stats,
            scheme=self._scheme,
            stream=stream,
            spill=spill_path,
            attrs=attrs,  # fresh dict from **attrs; no defensive copy needed
        )
        self._record(event)
        return event

    def _record(self, event: CheckpointEvent) -> None:
        self.events.append(event)
        if self.inner.enabled:
            self.inner.increment("checkpoint.events")
        if self._sink is not None:
            self._sink(event.to_payload())

    def _should_spill(self, trial: int) -> bool:
        if self._spill_dir is None:
            return False
        return self._spill_mode == "all" or trial in self._spill_trials

    def _spill(
        self,
        stage: str,
        trial: int,
        rate: Optional[float],
        seq: int,
        named: Sequence[Tuple[str, np.ndarray]],
    ) -> str:
        """Save the full tensors; returns the ``.npz`` path (collision-free
        across workers: the filename is the event's canonical key)."""
        assert self._spill_dir is not None
        self._spill_dir.mkdir(parents=True, exist_ok=True)
        stage_token = _STAGE_SANITIZE.sub("-", stage)
        path = self._spill_dir / (
            f"r{_rate_token(rate)}_t{trial:05d}_q{seq:04d}_{stage_token}.npz"
        )
        np.savez(path, **{name: np.ascontiguousarray(value) for name, value in named})
        return str(path)

    # -- worker transport -------------------------------------------------

    def payload(self) -> List[Dict[str, Any]]:
        """Every recorded event as JSON-serializable payloads, in order."""
        return [event.to_payload() for event in self.events]

    def absorb(self, payloads: Iterable[Mapping[str, Any]]) -> None:
        """Merge events recorded elsewhere (a worker process, a resumed
        shard) without re-digesting or re-perturbing them."""
        for payload in payloads:
            self._record(CheckpointEvent.from_payload(payload))

    def spec_for_workers(self) -> CheckpointSpec:
        """The picklable configuration a worker needs to mirror this
        recorder (perturbation included, so injection behaves identically
        under any worker count)."""
        perturb = None
        if self._perturb is not None:
            perturb = (
                f"{self._perturb.trial}:{self._perturb.stage}:{self._perturb.flat_index}"
            )
        return CheckpointSpec(
            spill_dir=str(self._spill_dir) if self._spill_dir is not None else None,
            spill=self._spill_mode,
            spill_trials=tuple(sorted(self._spill_trials)),
            perturb=perturb,
        )


def _find_checkpoint_sink(recorder: Recorder) -> Optional[Any]:
    """The innermost recorder's ``checkpoint_record`` method, if any.

    Walks the ``inner`` chain (profiling and checkpoint recorders expose
    ``inner``; the profiler uses ``_inner``) looking for a backend that
    can persist checkpoint records — the JSONL tracer.
    """
    seen: Set[int] = set()
    current: Optional[Any] = recorder
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        sink = getattr(current, "checkpoint_record", None)
        if callable(sink):
            return sink
        current = getattr(current, "inner", None) or getattr(current, "_inner", None)
    return None


def find_checkpointer(recorder: Recorder) -> Optional[CheckpointRecorder]:
    """The :class:`CheckpointRecorder` in ``recorder``'s chain, if any."""
    seen: Set[int] = set()
    current: Optional[Any] = recorder
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        if isinstance(current, CheckpointRecorder):
            return current
        current = getattr(current, "inner", None) or getattr(current, "_inner", None)
    return None

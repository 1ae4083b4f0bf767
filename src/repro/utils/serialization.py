"""JSON-friendly serialization of configs and experiment results.

Experiment outputs (series of floats keyed by scheme name) and scenario
configurations round-trip through plain dictionaries so benchmark runs can
be persisted and diffed. Numpy scalars/arrays are converted to native
Python types on the way out.

Writes are atomic: :func:`dump` serializes to a temporary file in the
target's directory and renames it into place, so a crash mid-write can
never leave a truncated or half-written JSON behind — readers see either
the old complete file or the new complete file.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

__all__ = [
    "to_jsonable",
    "dumps",
    "dump",
    "loads",
    "load",
    "canonical_json",
    "canonical_form",
    "content_digest",
    "memoized_digest",
]


#: Types :func:`to_jsonable` returns as they are, checked first.
_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})

#: The canonical encoding: sorted keys, no whitespace.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def to_jsonable(value: Any) -> Any:
    """Recursively convert a value into JSON-serializable built-ins.

    Handles dataclasses, numpy scalars and arrays (complex arrays become
    ``{"real": [...], "imag": [...]}``), mappings, and sequences. Values
    that are already JSON-native pass through unchanged.
    """
    if type(value) in _JSON_SCALARS:  # exact types: np.float64 is a float
        return value
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [to_jsonable(item) for item in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return to_jsonable(value.value)
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return {
                "real": to_jsonable(value.real),
                "imag": to_jsonable(value.imag),
            }
        return value.tolist()
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, complex):
        return {"real": value.real, "imag": value.imag}
    if isinstance(value, Path):
        return str(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot serialize value of type {type(value).__name__}")


def dumps(value: Any, indent: int = 2) -> str:
    """Serialize ``value`` to a JSON string via :func:`to_jsonable`."""
    return json.dumps(to_jsonable(value), indent=indent, sort_keys=True)


def dump(value: Any, path: Union[str, Path], indent: int = 2) -> None:
    """Serialize ``value`` as JSON to ``path``, atomically.

    The JSON is written to a temporary file in the same directory and
    renamed over ``path`` with :func:`os.replace` (atomic on POSIX and
    Windows). An interrupted write — crash, Ctrl-C, full disk — leaves
    the previous contents of ``path`` untouched and no partial file.
    """
    target = Path(path)
    text = dumps(value, indent=indent) + "\n"
    directory = target.parent if str(target.parent) else Path(".")
    handle = tempfile.NamedTemporaryFile(
        mode="w",
        encoding="utf-8",
        dir=directory,
        prefix=f".{target.name}.",
        suffix=".tmp",
        delete=False,
    )
    try:
        with handle as stream:
            stream.write(text)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(handle.name, target)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def canonical_json(payload: Any, encoded: Optional[Mapping[str, str]] = None) -> str:
    """The canonical JSON text of ``payload``: the bytes content addresses hash.

    Canonical means sorted keys, no whitespace and native types (via
    :func:`to_jsonable`), so equal payloads encode equally in any process.
    ``encoded`` maps further top-level keys of a mapping ``payload`` to
    values that are already canonical text (a config's, from
    :func:`canonical_form`); the result is the text of the merged
    mapping, and those values are not walked again.
    """
    if not encoded:
        return _CANONICAL.encode(to_jsonable(payload))
    items = to_jsonable(payload)
    parts: List[str] = []
    run: Dict[str, Any] = {}  # consecutive plain items, encoded in one call
    for key in sorted({*items, *encoded}):
        if key not in encoded:
            run[key] = items[key]
            continue
        if run:
            parts.append(_CANONICAL.encode(run)[1:-1])
            run = {}
        parts.append(f"{json.dumps(key)}:{encoded[key]}")
    if run:
        parts.append(_CANONICAL.encode(run)[1:-1])
    return "{" + ",".join(parts) + "}"


@functools.lru_cache(maxsize=64)
def _encode(value: Any, type_key: str) -> Tuple[Any, str]:
    # ``type_key`` (the value's repr) only takes part in the cache key.
    jsonable = to_jsonable(value)
    return jsonable, canonical_json(jsonable)


def canonical_form(value: Any) -> Tuple[Any, str]:
    """``(to_jsonable(value), canonical_json(value))``, once per distinct value.

    For hashable values such as the frozen scenario and cell configs that
    every shard of a plan repeats. The cache is per process, and its key
    is the value together with its ``repr``: equal values can encode
    differently (``snr_db=20`` equals ``snr_db=20.0``), while equal but
    distinct configs, such as those of a plan rebuilt from a manifest,
    share one entry. The jsonable form is shared: read it, never mutate it.
    """
    return _encode(value, repr(value))


def _text_digest(canonical: str) -> str:
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


def content_digest(payload: Any) -> str:
    """blake2b-16 hex digest of ``payload`` as canonical JSON.

    This is the content address of campaign and cell shards and plans,
    and the reference the cached encodings are checked against.
    """
    return _text_digest(canonical_json(payload))


def memoized_digest(instance: Any, key: str, canonical: Callable[[], str]) -> str:
    """The digest of the canonical text ``canonical()``, once per ``instance``.

    ``canonical`` must return ``canonical_json(payload)`` for the
    instance's payload, so the result equals ``content_digest(payload)``.
    For frozen dataclasses whose digest is a pure function of their
    fields. The value is kept in ``instance.__dict__[key]`` (set with
    ``object.__setattr__``), outside the dataclass fields, so equality,
    hashing, ``repr`` and :func:`to_jsonable` never see it. Pickling and
    copying carry it along with the fields it was computed from;
    :func:`dataclasses.replace` builds a new instance, which computes
    its own. Callers keep ``digest`` a plain ``property``.
    """
    memo = instance.__dict__.get(key)
    if memo is None:
        memo = _text_digest(canonical())
        object.__setattr__(instance, key, memo)
    return memo


def loads(text: str) -> Any:
    """Parse a JSON string produced by :func:`dumps`."""
    return json.loads(text)


def load(path: Union[str, Path]) -> Any:
    """Parse the JSON file at ``path``."""
    return loads(Path(path).read_text(encoding="utf-8"))

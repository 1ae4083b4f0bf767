"""Benchmark-regression gate: session BENCH_*.json vs the committed baseline.

The benchmark suite writes one ``BENCH_<label>.json`` per benchmark label
(count / mean_s / p50_s / p95_s; see ``benchmarks/conftest.py``). This
script compares those session files against ``benchmarks/baseline.json``
and exits non-zero when any label's **mean** or **median** slowed down
by more than the threshold (default 25%), so CI fails on perf
regressions the same way it fails on broken tests.

Machine-speed normalization: both the baseline and every session carry a
``calibration`` label timing a fixed linear-algebra workload. When both
sides have it, benchmark timings are divided by their side's calibration
median before comparison, so a slower runner generation does not read as
a code regression (and a faster one does not mask it).

Usage::

    python benchmarks/check_regression.py              # gate (exit 0/1)
    python benchmarks/check_regression.py --update     # refresh baseline
    python benchmarks/check_regression.py --strict-new # fail on unbaselined benches
    python benchmarks/check_regression.py --inject-slowdown 2  # self-test

Stdlib-only on purpose — the gate must run before (and regardless of)
any project dependency installation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional

DEFAULT_THRESHOLD = 0.25
CALIBRATION_LABEL = "calibration"
BASELINE_VERSION = 1

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"

#: The two statistics gated per label. The p95 is deliberately *not*
#: gated: on shared runners the tail measures scheduler contention, not
#: code, and flaps run-to-run far beyond any real regression signal.
GATED_STATS = ("mean_s", "p50_s")

#: Statistics whose baseline is below this (seconds) are reported but not
#: gated: sub-10us timings measure timer granularity and cache-hit
#: overhead, whose cross-machine ratio is noise the calibration workload
#: cannot normalize away.
MIN_GATED_SECONDS = 1e-5


def load_session(bench_dir: Path) -> Dict[str, Dict[str, object]]:
    """All BENCH_<label>.json files in a directory, keyed by label."""
    entries: Dict[str, Dict[str, object]] = {}
    for path in sorted(bench_dir.glob("BENCH_*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        label = payload.get("name") or path.stem[len("BENCH_") :]
        entries[label] = {
            key: float(payload[key])
            for key in ("mean_s", "p50_s", "p95_s")
            if key in payload
        }
        if "count" in payload:
            entries[label]["count"] = float(payload["count"])
    return entries


def load_baseline(path: Path) -> Dict[str, Dict[str, object]]:
    """The committed baseline's per-label statistics."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    return {
        label: {key: float(value) for key, value in stats.items()}
        for label, stats in payload["entries"].items()
    }


def write_baseline(path: Path, entries: Dict[str, Dict[str, float]]) -> None:
    payload = {
        "version": BASELINE_VERSION,
        "threshold": DEFAULT_THRESHOLD,
        "entries": {label: entries[label] for label in sorted(entries)},
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _scale(entries: Dict[str, Dict[str, object]]) -> Optional[float]:
    """The side's calibration timing, if recorded.

    The median round is preferred over the mean: one contended
    calibration round would otherwise shift every ratio of the session.
    """
    stats = entries.get(CALIBRATION_LABEL)
    if not stats:
        return None
    for key in ("p50_s", "mean_s"):
        value = stats.get(key, 0.0)
        if value > 0.0:
            return value
    return None


def new_labels(
    baseline: Dict[str, Dict[str, object]],
    session: Dict[str, Dict[str, object]],
) -> List[str]:
    """Session labels with no baseline entry (sorted; calibration excluded).

    These run unguarded: a regression in one of them cannot fail the gate
    until someone records it with ``--update``. ``--strict-new`` turns
    their presence into a failure so new benchmarks land with a baseline.
    """
    return sorted(set(session) - set(baseline) - {CALIBRATION_LABEL})


def compare(
    baseline: Dict[str, Dict[str, object]],
    session: Dict[str, Dict[str, object]],
    threshold: float,
) -> List[str]:
    """Regression messages (empty list = gate passes).

    Labels only present on one side are reported informationally on
    stdout but never fail the gate by default: benchmark subsets (e.g. a
    micro-only run) must not break CI, and newly added benchmarks are
    named in a NEW summary — gate them with ``--strict-new`` or record
    them with ``--update``.
    """
    base_scale = _scale(baseline)
    session_scale = _scale(session)
    if base_scale is None or session_scale is None:
        print("calibration: missing on one side; comparing raw wall-clock")
        base_scale = session_scale = 1.0
    else:
        print(
            f"calibration: baseline {base_scale * 1e3:.3f} ms,"
            f" session {session_scale * 1e3:.3f} ms (normalizing)"
        )

    failures: List[str] = []
    for label in sorted(baseline):
        if label == CALIBRATION_LABEL:
            continue
        if label not in session:
            print(f"  [skip] {label}: not measured this session")
            continue
        for stat in GATED_STATS:
            base_value = baseline[label].get(stat)
            new_value = session[label].get(stat)
            if not base_value or new_value is None:
                continue
            if base_value < MIN_GATED_SECONDS:
                print(f"  [tiny] {label} {stat}: below gating floor, not gated")
                continue
            ratio = (new_value / session_scale) / (base_value / base_scale)
            marker = "FAIL" if ratio > 1.0 + threshold else "ok"
            print(f"  [{marker}] {label} {stat}: {ratio:.2f}x baseline")
            if ratio > 1.0 + threshold:
                failures.append(
                    f"{label} {stat} is {ratio:.2f}x the baseline"
                    f" (allowed {1.0 + threshold:.2f}x)"
                )
    unbaselined = new_labels(baseline, session)
    for label in unbaselined:
        print(f"  [new] {label}: no baseline yet (run --update to record)")
    if unbaselined:
        print(
            f"NEW ({len(unbaselined)} unbaselined): {', '.join(unbaselined)}"
            " — these are NOT gated until recorded with --update"
        )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark-regression gate: session BENCH_*.json vs baseline."
    )
    parser.add_argument(
        "--bench-dir",
        type=Path,
        default=Path(os.environ.get("REPRO_BENCH_DIR", REPO_ROOT)),
        help="directory holding the session's BENCH_*.json files",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help="committed baseline file",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_THRESHOLD", DEFAULT_THRESHOLD)),
        help="allowed fractional slowdown (0.25 = +25%%)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline from this session's BENCH files",
    )
    parser.add_argument(
        "--strict-new",
        action="store_true",
        help="also fail when session benches have no baseline entry",
    )
    parser.add_argument(
        "--inject-slowdown",
        type=float,
        default=None,
        metavar="FACTOR",
        help="multiply session timings by FACTOR (gate self-test)",
    )
    args = parser.parse_args(argv)

    session = load_session(args.bench_dir)
    if not session:
        print(f"no BENCH_*.json files found in {args.bench_dir}", file=sys.stderr)
        return 1

    if args.inject_slowdown is not None:
        for label, stats in session.items():
            if label == CALIBRATION_LABEL:
                continue
            for stat in ("mean_s", "p50_s", "p95_s"):
                if stat in stats:
                    stats[stat] *= args.inject_slowdown
        print(f"injected {args.inject_slowdown:g}x synthetic slowdown")

    if args.update:
        write_baseline(args.baseline, session)
        print(f"baseline updated: {args.baseline} ({len(session)} labels)")
        return 0

    if not args.baseline.exists():
        print(f"baseline {args.baseline} missing; run with --update", file=sys.stderr)
        return 1

    baseline = load_baseline(args.baseline)
    failures = compare(baseline, session, args.threshold)
    if args.strict_new:
        failures.extend(
            f"{label} has no baseline entry (record it with --update)"
            for label in new_labels(baseline, session)
        )
    if failures:
        print(f"\nbenchmark regression gate FAILED ({len(failures)}):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nbenchmark regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

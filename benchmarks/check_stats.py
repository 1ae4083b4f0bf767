"""Statistical golden gate: fixed-seed sweep stats vs the committed golden.

``perfbench/`` catches the code getting slower; this gate catches it
getting *wrong*. It reruns a small, fully seeded
effectiveness sweep and compares each scheme's per-search-rate SNR-loss
statistics (mean / p50 / p95 over trials, in dB) against
``benchmarks/golden_stats.json``. Any statistic drifting by more than the
tolerance fails CI, so science regressions — a solver change shifting
the Proposed curve, an RNG-stream reordering, a channel-model edit —
surface the same way broken tests do.

The workload is deliberately tiny (small arrays, few trials, two rates)
so the gate runs in seconds; the tolerance is an *absolute* dB band wide
enough to absorb BLAS/platform variation but far narrower than any real
behavioural change. Seeded trials are bit-identical across runs on one
platform, so ``--tolerance 0`` also passes locally.

Usage (needs the package importable, e.g. ``PYTHONPATH=src``)::

    python benchmarks/check_stats.py                      # gate (exit 0/1)
    python benchmarks/check_stats.py --update             # refresh golden
    python benchmarks/check_stats.py --inject-perturbation 1.0  # self-test
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

GOLDEN_VERSION = 1
DEFAULT_TOLERANCE_DB = 0.20
DEFAULT_GOLDEN = Path(__file__).resolve().parent / "golden_stats.json"

#: The gated workload: small arrays, coarse RX codebook, few fading
#: blocks — seconds of compute, but it exercises the channel model, the
#: measurement path, and all three schemes including the penalized-ML
#: solver behind Proposed.
WORKLOAD = {
    "channel": "multipath",
    "tx_shape": [2, 2],
    "rx_shape": [2, 4],
    "rx_beam_grid": [3, 3],
    "fading_blocks": 4,
    "snr_db": 20.0,
    "measurements_per_slot": 4,
    "search_rates": [0.1, 0.3],
    "num_trials": 6,
    "base_seed": 2016,
    # Routed through the batched engine so the gate exercises its
    # stacked channel and measurement kernels; the batched path is
    # bit-identical to serial, so this does not move the golden numbers.
    "batch_trials": 3,
}

StatTable = Dict[str, Dict[str, Dict[str, float]]]  # scheme -> rate -> stat


def compute_stats(workload: dict = WORKLOAD) -> StatTable:
    """Run the seeded workload and fold losses into per-rate statistics."""
    from repro.obs.metrics import percentile
    from repro.sim.config import ChannelKind, ScenarioConfig
    from repro.sim.runner import standard_schemes
    from repro.sim.scenario import Scenario
    from repro.sim.sweep import effectiveness_sweep

    config = ScenarioConfig(
        channel=ChannelKind(workload["channel"]),
        tx_shape=tuple(workload["tx_shape"]),
        rx_shape=tuple(workload["rx_shape"]),
        rx_beam_grid=tuple(workload["rx_beam_grid"]),
        fading_blocks=workload["fading_blocks"],
        snr_db=workload["snr_db"],
    )
    sweep = effectiveness_sweep(
        Scenario(config),
        standard_schemes(measurements_per_slot=workload["measurements_per_slot"]),
        workload["search_rates"],
        workload["num_trials"],
        base_seed=workload["base_seed"],
        batch_trials=workload.get("batch_trials"),
    )
    table: StatTable = {}
    for scheme in sweep.schemes():
        table[scheme] = {}
        for rate, losses in zip(sweep.search_rates, sweep.losses[scheme]):
            table[scheme][f"{rate:g}"] = {
                "mean_db": float(sum(losses) / len(losses)),
                "p50_db": float(percentile(losses, 0.5)),
                "p95_db": float(percentile(losses, 0.95)),
            }
    return table


def load_golden(path: Path) -> StatTable:
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload.get("version") != GOLDEN_VERSION:
        raise ValueError(f"unsupported golden version in {path}")
    return payload["entries"]


def write_golden(path: Path, entries: StatTable) -> None:
    payload = {
        "version": GOLDEN_VERSION,
        "tolerance_db": DEFAULT_TOLERANCE_DB,
        "workload": WORKLOAD,
        "entries": entries,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def compare(golden: StatTable, session: StatTable, tolerance_db: float) -> List[str]:
    """Drift messages (empty list = gate passes).

    Every golden statistic must be present this session and within the
    absolute tolerance; schemes or rates missing from the session are
    failures too (the workload is fixed, so absence means breakage).
    """
    failures: List[str] = []
    for scheme in sorted(golden):
        if scheme not in session:
            failures.append(f"scheme {scheme!r} missing from session stats")
            continue
        for rate in sorted(golden[scheme]):
            if rate not in session[scheme]:
                failures.append(f"{scheme} rate {rate}: missing from session stats")
                continue
            for stat, expected in sorted(golden[scheme][rate].items()):
                actual = session[scheme][rate].get(stat)
                if actual is None:
                    failures.append(f"{scheme} rate {rate} {stat}: missing")
                    continue
                drift = abs(actual - expected)
                marker = "FAIL" if drift > tolerance_db else "ok"
                print(
                    f"  [{marker}] {scheme:10s} rate {rate:>4s} {stat}:"
                    f" {actual:8.4f} dB (golden {expected:8.4f},"
                    f" drift {drift:.4f})"
                )
                if drift > tolerance_db:
                    failures.append(
                        f"{scheme} rate {rate} {stat} drifted {drift:.4f} dB"
                        f" (allowed {tolerance_db:.4f})"
                    )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Statistical golden gate: seeded sweep stats vs golden_stats.json."
    )
    parser.add_argument(
        "--golden", type=Path, default=DEFAULT_GOLDEN, help="committed golden file"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        metavar="DB",
        help="allowed absolute drift per statistic in dB"
        " (default: the golden file's, else 0.20)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the golden from this run's statistics",
    )
    parser.add_argument(
        "--inject-perturbation",
        type=float,
        default=None,
        metavar="DB",
        help="shift session stats by DB before comparing (gate self-test)",
    )
    args = parser.parse_args(argv)

    session = compute_stats()

    if args.inject_perturbation is not None:
        for scheme in session.values():
            for stats in scheme.values():
                for stat in stats:
                    stats[stat] += args.inject_perturbation
        print(f"injected {args.inject_perturbation:+g} dB synthetic drift")

    if args.update:
        write_golden(args.golden, session)
        print(f"golden updated: {args.golden}")
        return 0

    if not args.golden.exists():
        print(f"golden {args.golden} missing; run with --update", file=sys.stderr)
        return 1

    payload = json.loads(args.golden.read_text(encoding="utf-8"))
    golden = load_golden(args.golden)
    tolerance_db = (
        args.tolerance
        if args.tolerance is not None
        else float(payload.get("tolerance_db", DEFAULT_TOLERANCE_DB))
    )
    failures = compare(golden, session, tolerance_db)
    if failures:
        print(f"\nstatistical golden gate FAILED ({len(failures)}):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nstatistical golden gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

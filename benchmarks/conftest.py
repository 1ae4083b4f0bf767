"""Benchmark-suite configuration.

Every benchmark regenerates one of the paper's evaluation artifacts and
prints the same rows the paper plots. Because a figure is a full
Monte-Carlo sweep, each benchmark runs exactly once (``pedantic`` with one
round) — the interesting output is the printed series and the shape
assertions, not sub-millisecond timing jitter.

Wall-clock per benchmark is additionally timed into a shared
:class:`repro.obs.MetricsRegistry`; at session end each label is written
out as machine-readable ``BENCH_<label>.json`` (count/mean/p50/p95
seconds) so the perf trajectory accumulates across sessions.

Environment knobs (all optional):

* ``REPRO_BENCH_TRIALS`` — Monte-Carlo trials per sweep point (default 12;
  the paper-scale record in EXPERIMENTS.md used 30);
* ``REPRO_BENCH_SEED`` — base seed (default 2016);
* ``REPRO_BENCH_DIR`` — where ``BENCH_<label>.json`` files land
  (default: the repository root).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.obs import MetricsRegistry, timer_stats

DEFAULT_TRIALS = 12
DEFAULT_SEED = 2016

#: Session-wide wall-clock registry; one timer per benchmark label.
BENCH_METRICS = MetricsRegistry()


@pytest.fixture(scope="session")
def bench_trials() -> int:
    """Trials per sweep point, overridable via REPRO_BENCH_TRIALS."""
    return int(os.environ.get("REPRO_BENCH_TRIALS", DEFAULT_TRIALS))


@pytest.fixture(scope="session")
def bench_seed() -> int:
    """Base seed, overridable via REPRO_BENCH_SEED."""
    return int(os.environ.get("REPRO_BENCH_SEED", DEFAULT_SEED))


def run_once(benchmark, func, *args, bench_label=None, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark and return it.

    The call is also timed into :data:`BENCH_METRICS` under
    ``bench_label`` (default: the function's name), feeding the
    ``BENCH_<label>.json`` files written at session end.
    """
    label = bench_label or func.__name__

    def timed(*call_args, **call_kwargs):
        with BENCH_METRICS.timer(label):
            return func(*call_args, **call_kwargs)

    return benchmark.pedantic(timed, args=args, kwargs=kwargs, rounds=1, iterations=1)


def timed_call(bench_label, func):
    """Wrap ``func`` so every invocation is timed into :data:`BENCH_METRICS`.

    For micro-benchmarks that run many iterations under ``benchmark(...)``:
    each call contributes one duration sample, so the emitted
    ``BENCH_<label>.json`` carries genuine p50/p95 spread.
    """

    def wrapper(*args, **kwargs):
        with BENCH_METRICS.timer(bench_label):
            return func(*args, **kwargs)

    return wrapper


def _bench_output_dir() -> Path:
    override = os.environ.get("REPRO_BENCH_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent.parent


def _run_calibration(rounds: int = 12) -> None:
    """Time a fixed linear-algebra workload into the ``calibration`` label.

    The workload (one 64x64 Hermitian eigendecomposition plus a GEMM, the
    kernels the suite leans on) is deterministic and machine-independent,
    so its wall-clock measures *this machine's* speed. The regression
    checker divides benchmark timings by the calibration mean to compare
    runs taken on differently-sized machines (e.g. CI runner generations).
    """
    rng = np.random.default_rng(20160617)
    factors = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    matrix = factors @ factors.conj().T
    for _ in range(rounds):
        with BENCH_METRICS.timer("calibration"):
            values, vectors = np.linalg.eigh(matrix)
            (vectors * values) @ vectors.conj().T


def pytest_sessionfinish(session, exitstatus):
    """Write one BENCH_<label>.json per recorded benchmark label."""
    if BENCH_METRICS.timers:
        _run_calibration()
    timers = BENCH_METRICS.timers
    if not timers:
        return
    out_dir = _bench_output_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    trials = int(os.environ.get("REPRO_BENCH_TRIALS", DEFAULT_TRIALS))
    seed = int(os.environ.get("REPRO_BENCH_SEED", DEFAULT_SEED))
    for label, samples in timers.items():
        payload = {
            "name": label,
            "trials": trials,
            "seed": seed,
            **timer_stats(samples),
        }
        path = out_dir / f"BENCH_{label}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

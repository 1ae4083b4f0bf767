"""Benchmark-suite configuration.

Every benchmark regenerates one of the paper's evaluation artifacts and
prints the same rows the paper plots. Because a figure is a full
Monte-Carlo sweep, each benchmark runs exactly once (``pedantic`` with one
round) — the interesting output is the printed series and the shape
assertions, not sub-millisecond timing jitter.

Wall-clock per benchmark is additionally timed into a shared
:class:`repro.obs.MetricsRegistry`, which suites that compare their own
runs (``bench_cell.py``, ``bench_campaign.py``) read in-process. The
repository's performance ledger is ``perfbench/`` (see
``docs/performance.md``).

Environment knobs (all optional):

* ``REPRO_BENCH_TRIALS`` — Monte-Carlo trials per sweep point (default 12;
  the paper-scale record in EXPERIMENTS.md used 30);
* ``REPRO_BENCH_SEED`` — base seed (default 2016).
"""

from __future__ import annotations

import os

import pytest

from repro.obs import MetricsRegistry

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
    ``bench_label`` (default: the function's name).
    """
    label = bench_label or func.__name__

    def timed(*call_args, **call_kwargs):
        with BENCH_METRICS.timer(label):
            return func(*call_args, **call_kwargs)

    return benchmark.pedantic(timed, args=args, kwargs=kwargs, rounds=1, iterations=1)

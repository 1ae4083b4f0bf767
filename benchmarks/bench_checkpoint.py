"""Flight-recorder overhead benchmarks: stage digests on vs off.

The checkpoint recorder (:mod:`repro.obs.checkpoint`) blake2b-digests
every pipeline stage — channel draw, gain tables, probes, estimator
solves, beam selection, metrics — when one is installed. Its
documented budget (``docs/drift.md``): a quick-fig6-style workload with
digests on stays within **10%** of the digest-free run, and with the
default :class:`~repro.obs.NullRecorder` the instrumentation is a no-op
behind a single ``checkpoints_enabled`` attribute check.

The ``checkpoint-off`` / ``checkpoint-on`` benchmarks time both arms
once; the gate below holds the *ratio* to the budget, which stays
meaningful on any machine. End-to-end speed is tracked by
``perfbench/``.
"""

from __future__ import annotations

import gc
import time

import pytest

from benchmarks.conftest import run_once

from repro.obs import CheckpointRecorder, use_recorder
from repro.sim.config import ChannelKind, ScenarioConfig
from repro.sim.runner import run_trials, standard_schemes
from repro.sim.scenario import Scenario

#: Quick-fig6-style workload: the paper's Sec. V-A multipath scenario,
#: all three schemes, a low search rate (long probe schedules), few
#: trials. Hundreds of checkpoint events per trial — probe digests are
#: tiny, each subspace-reduced estimator solve hashes its reduced
#: solution and basis (a few KB) rather than the lifted 64x64 one.
TRIALS = 2
SEARCH_RATE = 0.1
SEED = 2016

#: The documented overhead budget for digests-on vs digests-off.
OVERHEAD_BUDGET = 0.10


@pytest.fixture(scope="module")
def scenario() -> Scenario:
    """The paper's Sec. V-A multipath scenario (4x4 TX, 8x8 RX)."""
    return Scenario(ScenarioConfig(channel=ChannelKind.MULTIPATH))


def _run(scenario):
    return run_trials(
        scenario,
        standard_schemes(measurements_per_slot=4),
        SEARCH_RATE,
        TRIALS,
        base_seed=SEED,
    )


def _run_checkpointed(scenario):
    recorder = CheckpointRecorder()
    with use_recorder(recorder):
        result = _run(scenario)
    assert recorder.events, "checkpointing was on but recorded no events"
    return result


def test_checkpoint_off(benchmark, scenario):
    """The digest-free workload under the default null recorder.

    Every instrumented stage still evaluates its ``checkpoints_enabled``
    guard — this label *is* the "~0% with NullRecorder" half of the
    budget.
    """
    run_once(benchmark, _run, scenario, bench_label="checkpoint-off")


def test_checkpoint_on(benchmark, scenario):
    """The same workload with a flight recorder digesting every stage."""
    run_once(benchmark, _run_checkpointed, scenario, bench_label="checkpoint-on")


class _TimedCheckpointRecorder(CheckpointRecorder):
    """A flight recorder that clocks its own ``checkpoint()`` calls."""

    def __init__(self) -> None:
        super().__init__()
        self.digest_seconds = 0.0

    def checkpoint(self, stage, arrays, stream=None, **attrs):
        start = time.perf_counter()
        try:
            return super().checkpoint(stage, arrays, stream=stream, **attrs)
        finally:
            self.digest_seconds += time.perf_counter() - start


def test_checkpoint_overhead_budget(scenario):
    """Acceptance gate: the recorder's direct cost stays within 10%.

    Compares the summed time spent *inside* ``checkpoint()`` during an
    instrumented run against the best-of-rounds digest-free runtime —
    the stable statement of the budget. (A raw wall-clock A/B delta on
    the same workload mixes in GC scheduling and cache-layout effects
    that vary several percent run to run, more than the budget's own
    margin.) Both sides run interleaved under identical load, with the
    cyclic GC paused during timing; best-of-rounds discards scheduler
    contention. Each subspace-reduced estimator solve hashes its
    reduced solution and basis, not the lifted 64x64 complex solution
    (~65 KB per event), which took most of the digest time.
    """
    # Warm both code paths (lazy imports, codebook caches, LAPACK
    # work buffers, the digest hot path).
    _run(scenario)
    _run_checkpointed(scenario)
    off_samples = []
    digest_samples = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(6):
            start = time.perf_counter()
            _run(scenario)
            off_samples.append(time.perf_counter() - start)
            recorder = _TimedCheckpointRecorder()
            with use_recorder(recorder):
                _run(scenario)
            assert recorder.events, "checkpointing was on but recorded no events"
            digest_samples.append(recorder.digest_seconds)
            gc.collect()
    finally:
        gc.enable()
    overhead = min(digest_samples) / min(off_samples)
    print(
        f"\ncheckpoint digest cost: {min(digest_samples) * 1000:.1f}ms over a "
        f"{min(off_samples) * 1000:.1f}ms digest-free run ({overhead * 100:.1f}%)"
    )
    assert overhead < OVERHEAD_BUDGET, (
        f"digest recording costs {overhead * 100:.1f}% of the digest-free "
        f"runtime (budget: {OVERHEAD_BUDGET * 100:.0f}%)"
    )

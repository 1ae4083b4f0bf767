"""Batched-vs-serial micro-benchmarks of the stacked trial kernels.

The batched trial engine (:mod:`repro.sim.batch`) replaces B serial
passes over the per-trial hot kernels with one stacked array program per
kernel. These benchmarks measure each kernel at B in {1, 8, 32} next to
its serial loop, so the amortization curve — and any regression that
flattens it — is visible in the ``BENCH_*.json`` record.

All kernels are bit-identical to their serial counterparts (pinned by
``tests/test_batch_engine.py``); only wall-clock is at stake here.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import timed_call

from repro.channel.batch import mean_snr_matrices
from repro.measurement.measurer import MeasurementEngine
from repro.sim.config import ChannelKind, ScenarioConfig
from repro.sim.scenario import Scenario

BATCH_SIZES = (1, 8, 32)


@pytest.fixture(scope="module")
def scenario() -> Scenario:
    """The paper's Sec. V-A multipath scenario (4x4 TX, 8x8 RX)."""
    return Scenario(ScenarioConfig(channel=ChannelKind.MULTIPATH))


@pytest.fixture(scope="module")
def primed_engine(scenario):
    """A measurement engine on one realization with primed couplings."""
    channel = scenario.sample_channel(np.random.default_rng(7))
    context = scenario.context()
    # Prime the coupling memo exactly as run_trial_block does, so the
    # fused path benchmarks the steady-state (table-hit) cost.
    mean_snr_matrices([channel], context.tx_codebook, context.rx_codebook)
    return channel, context


def _probe_flats(context, batch: int) -> np.ndarray:
    rng = np.random.default_rng(13)
    return rng.choice(context.total_pairs, size=batch, replace=False)


# ----------------------------------------------------------------------
# Channel generation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_channel_generation_batched(benchmark, scenario, batch):
    """B channel realizations through the stacked steering GEMMs."""

    def batched():
        rngs = [np.random.default_rng(1000 + k) for k in range(batch)]
        return scenario.sample_channel_batch(rngs)

    benchmark(timed_call(f"batch-channel-b{batch}", batched))


def test_channel_generation_serial(benchmark, scenario):
    """The serial loop the B=32 stacked draw replaces."""

    def serial():
        return [
            scenario.sample_channel(np.random.default_rng(1000 + k))
            for k in range(32)
        ]

    benchmark(timed_call("batch-channel-serial32", serial))


# ----------------------------------------------------------------------
# Measurement synthesis
# ----------------------------------------------------------------------


@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_measurement_synthesis_batched(benchmark, primed_engine, batch):
    """B beam-pair measurements in one fused RNG block + GEMM."""
    channel, context = primed_engine
    flats = _probe_flats(context, batch)

    def batched():
        engine = MeasurementEngine(channel, np.random.default_rng(2), fading_blocks=8)
        return engine.measure_pairs(context.tx_codebook, context.rx_codebook, flats)

    benchmark(timed_call(f"batch-measure-b{batch}", batched))


def test_measurement_synthesis_serial(benchmark, primed_engine):
    """The serial per-pair loop the B=32 fused draw replaces."""
    channel, context = primed_engine
    pairs = [context.pair_of(int(flat)) for flat in _probe_flats(context, 32)]

    def serial():
        engine = MeasurementEngine(channel, np.random.default_rng(2), fading_blocks=8)
        return [
            engine.measure_pair(context.tx_codebook, context.rx_codebook, pair)
            for pair in pairs
        ]

    benchmark(timed_call("batch-measure-serial32", serial))

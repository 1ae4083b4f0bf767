"""Seeded outputs pinned as constants, so drift across commits is caught.

The determinism suites compare engines against each other inside one
checkout; they cannot notice when *every* engine drifts together. These
constants were computed once and must never change without a deliberate
reason:

* the flight-recorder stage digests of a tiny fixed-seed fig6-style
  sweep, serial and batched (one combined digest over every event);
* one campaign ``ShardSpec.digest``;
* the digest of one ``cell serve`` deterministic summary payload.

Each case also runs with ``REPRO_BACKEND=numba`` in the environment:
the variable is no longer read, so the digests must be identical and
no warning may be raised.
"""

from __future__ import annotations

import hashlib
import warnings

import pytest

from repro.campaign import plan_effectiveness_sweep
from repro.cell.config import CellConfig
from repro.cell.service import serve_cell, summary_payload
from repro.obs import CheckpointRecorder, use_recorder
from repro.sim.batch import run_trials_batched
from repro.sim.config import ChannelKind, ScenarioConfig
from repro.sim.parallel import SchemeSpec
from repro.sim.runner import run_trials
from repro.sim.scenario import Scenario
from repro.utils.serialization import dumps

SPECS = (
    SchemeSpec.of("Random"),
    SchemeSpec.of("Scan"),
    SchemeSpec.of("Proposed", measurements_per_slot=4),
)
RATES = (0.2, 0.4)
TRIALS = 3
SEED = 11

#: Combined digest of every checkpoint event of the tiny sweep below.
SWEEP_CHECKPOINT_DIGEST = "e5d051ab8fe22d22a96230bef45b77a5"
#: ``plan_effectiveness_sweep(...).shards[1].digest`` for the same sweep.
SHARD_SPEC_DIGEST = "d47d8276eaf70b7cbb34ab622a669c6d"
#: blake2b of the canonical JSON of the tiny cell's summary payload.
CELL_SUMMARY_DIGEST = "a857732c798545378a1959d8f9ce4791"


def _config() -> ScenarioConfig:
    return ScenarioConfig(
        channel=ChannelKind.MULTIPATH,
        tx_shape=(2, 2),
        rx_shape=(2, 4),
        rx_beam_grid=(3, 3),
        snr_db=20.0,
        fading_blocks=4,
    )


def _events_digest(events) -> str:
    hasher = hashlib.blake2b(digest_size=16)
    for event in events:
        hasher.update(f"{event.key}|{event.stage}|{event.digest}\n".encode("utf-8"))
    return hasher.hexdigest()


def sweep_checkpoint_digest(batch_size=None) -> str:
    """Run the tiny sweep under a flight recorder; digest its events."""
    scenario = Scenario(_config())
    schemes = {spec.name: spec.build_factory() for spec in SPECS}
    recorder = CheckpointRecorder()
    with use_recorder(recorder):
        for rate in RATES:
            if batch_size is None:
                run_trials(scenario, schemes, rate, TRIALS, base_seed=SEED)
            else:
                run_trials_batched(
                    scenario, schemes, rate, TRIALS, base_seed=SEED,
                    batch_size=batch_size,
                )
    assert recorder.events
    return _events_digest(recorder.events)


def shard_spec_digest() -> str:
    plan = plan_effectiveness_sweep(
        _config(), SPECS, RATES, TRIALS, base_seed=SEED, shard_trials=2
    )
    return plan.shards[1].digest


def cell_summary_digest() -> str:
    config = CellConfig(
        scenario=ScenarioConfig(
            tx_shape=(2, 2), rx_shape=(2, 4), rx_beam_grid=(3, 3), fading_blocks=4
        ),
        num_users=12,
        arrival_rate_hz=5000.0,
        search_rate=0.25,
        probe_budget_per_frame=16,
        interference_coupling=0.2,
    )
    report = serve_cell(config, batch_users=8)
    canonical = dumps(summary_payload(report)).encode("utf-8")
    return hashlib.blake2b(canonical, digest_size=16).hexdigest()


@pytest.fixture(params=[None, "numba"], ids=["plain-env", "repro-backend-numba"])
def environment(request, monkeypatch):
    """Run each case as is and with ``REPRO_BACKEND=numba`` set."""
    if request.param is None:
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
    else:
        monkeypatch.setenv("REPRO_BACKEND", request.param)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield request.param


class TestPinnedDigests:
    def test_serial_sweep_checkpoints(self, environment):
        assert sweep_checkpoint_digest() == SWEEP_CHECKPOINT_DIGEST

    def test_batched_sweep_checkpoints(self, environment):
        assert sweep_checkpoint_digest(batch_size=2) == SWEEP_CHECKPOINT_DIGEST

    def test_shard_spec_digest(self, environment):
        assert shard_spec_digest() == SHARD_SPEC_DIGEST

    def test_cell_summary_digest(self, environment):
        assert cell_summary_digest() == CELL_SUMMARY_DIGEST

"""Seeded outputs pinned as constants, so drift across commits is caught.

The determinism suites compare engines against each other inside one
checkout; they cannot notice when *every* engine drifts together. These
constants were computed once and must never change without a deliberate
reason:

* the flight-recorder stage digests of a tiny fixed-seed fig6-style
  sweep, serial and batched (one combined digest over every event);
* one campaign ``ShardSpec.digest`` and the ``CampaignPlan.digest`` of
  its sweep, one ``CellPlan.digest`` and one ``CellShard.digest``, and
  a blake2b of the bytes of one ``ShardStore.put`` artifact file (it
  carries the package version in its provenance block), so the
  store's addresses and artifact bytes cannot move when the hashing
  code does;
* the digest of one ``cell serve`` deterministic summary payload;
* one digest over a seeded set of penalized-ML covariance solves (cold,
  warm with a carried eigendecomposition, and without the subspace
  reduction), so the solver's iterates are pinned on their own;
* one digest over a seeded set of probe measurements: fused
  ``measure_pairs`` batches with and without interference hits, a
  ``measure_pair`` loop, and ``Scan``/``Random`` alignments, so the
  probe path's RNG stream and arithmetic are pinned on their own;
* one digest each of the quick ``mac-overhead`` and ``cell-search``
  result data, so the MAC timing and sync-sweep loops are pinned;
* one digest over a seeded set of least-squares + nuclear-norm
  covariance solves (cold, then warm-started from the previous
  solution), so the FISTA iterates are pinned on their own.

Each case also runs with ``REPRO_BACKEND=numba`` in the environment:
the variable is no longer read, so the digests must be identical and
no warning may be raised.
"""

from __future__ import annotations

import hashlib
import warnings

import numpy as np
import pytest

from repro.baselines.random_search import RandomSearch
from repro.baselines.scan_search import ScanSearch
from repro.campaign import ShardStore, plan_effectiveness_sweep
from repro.cell.config import CellConfig
from repro.cell.service import serve_cell, summary_payload
from repro.cell.shards import plan_cell
from repro.core.base import AlignmentContext
from repro.estimation.ls_covariance import LsCovarianceEstimator
from repro.estimation.ml_covariance import estimate_ml_covariance
from repro.experiments.ablations import run_cell_search, run_mac_overhead
from repro.measurement.budget import MeasurementBudget
from repro.measurement.measurer import MeasurementEngine
from repro.obs import CheckpointRecorder, use_recorder
from repro.sim.config import ChannelKind, ScenarioConfig
from repro.sim.parallel import SchemeSpec
from repro.sim.runner import run_trials
from repro.sim.scenario import Scenario
from repro.types import BeamPair
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
SWEEP_CHECKPOINT_DIGEST = "8a8dc24f5867588a79fb8fe44658caf9"
#: ``plan_effectiveness_sweep(...).shards[1].digest`` for the same sweep.
SHARD_SPEC_DIGEST = "d47d8276eaf70b7cbb34ab622a669c6d"
#: ``plan_effectiveness_sweep(...).digest`` for the same sweep.
CAMPAIGN_PLAN_DIGEST = "6a4f4182a7f4666200671bf388fdd242"
#: ``plan_cell(<tiny cell>, shard_ues=5).digest`` (three shards).
CELL_PLAN_DIGEST = "45438a202b3d650de08a93ccbaa8f7ae"
#: ``.shards[1].digest`` of that cell plan.
CELL_SHARD_DIGEST = "40bfe852cb944b557be6bf94d53459a1"
#: blake2b of the artifact file ``ShardStore.put`` writes for the sweep's
#: ``shards[1]`` with fixed loss series.
SHARD_ARTIFACT_DIGEST = "15b1231dd74316c0192e22bd047f2805"
#: blake2b of the canonical JSON of the tiny cell's summary payload.
CELL_SUMMARY_DIGEST = "a857732c798545378a1959d8f9ce4791"
#: blake2b over the results of the seeded ``estimate_ml_covariance`` set.
ML_SOLVER_DIGEST = "3bf01a3ae32b3884cd07c687134a3cf8"
#: blake2b over the seeded probe measurements of ``probe_stream_digest``.
PROBE_STREAM_DIGEST = "f8c02ccc2b697470482fbba9a9283bf7"
#: blake2b of the canonical JSON of ``run_mac_overhead(quick=True).data``.
MAC_OVERHEAD_DIGEST = "2137a8d76060782d273cffafe6c7e997"
#: blake2b of the canonical JSON of ``run_cell_search(quick=True).data``.
CELL_SEARCH_DIGEST = "d1effd47e9c7488c421c6c04168c0194"
#: blake2b over the results of the seeded ``LsCovarianceEstimator`` set.
LS_SOLVER_DIGEST = "9d25689e5c99cc6ce1f9fef3905b3b7d"


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


def sweep_checkpoint_digest(batch_trials=None) -> str:
    """Run the tiny sweep under a flight recorder; digest its events."""
    scenario = Scenario(_config())
    schemes = {spec.name: spec.build_factory() for spec in SPECS}
    recorder = CheckpointRecorder()
    with use_recorder(recorder):
        for rate in RATES:
            run_trials(
                scenario, schemes, rate, TRIALS, base_seed=SEED,
                batch_trials=batch_trials,
            )
    assert recorder.events
    return _events_digest(recorder.events)


def _sweep_plan():
    return plan_effectiveness_sweep(
        _config(), SPECS, RATES, TRIALS, base_seed=SEED, shard_trials=2
    )


def shard_spec_digest() -> str:
    return _sweep_plan().shards[1].digest


def shard_artifact_digest(root) -> str:
    """Write one shard artifact through ``ShardStore.put``; hash its bytes."""
    shard = _sweep_plan().shards[1]
    losses = {
        name: [0.5 * k + 0.125 for k in range(shard.trial_count)]
        for name in shard.scheme_names()
    }
    path = ShardStore(root).put(shard, losses)
    return hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()


def _cell_config() -> CellConfig:
    return CellConfig(
        scenario=ScenarioConfig(
            tx_shape=(2, 2), rx_shape=(2, 4), rx_beam_grid=(3, 3), fading_blocks=4
        ),
        num_users=12,
        arrival_rate_hz=5000.0,
        search_rate=0.25,
        probe_budget_per_frame=16,
        interference_coupling=0.2,
    )


def cell_summary_digest(batch_users) -> str:
    report = serve_cell(_cell_config(), batch_users=batch_users)
    canonical = dumps(summary_payload(report)).encode("utf-8")
    return hashlib.blake2b(canonical, digest_size=16).hexdigest()


def _solver_problem(rng, n, m, noise):
    probes = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    probes /= np.linalg.norm(probes, axis=0)
    direction = rng.normal(size=n) + 1j * rng.normal(size=n)
    truth = float(n) * np.outer(direction, direction.conj()) / np.vdot(
        direction, direction
    ).real
    lambdas = np.real(np.einsum("nm,nk,km->m", probes.conj(), truth, probes))
    powers = (lambdas + noise) * rng.exponential(size=m)
    return probes, powers


def ml_solver_digest() -> str:
    """Digest a cold, a warm and a full-space penalized-ML solve."""
    rng = np.random.default_rng(SEED)
    noise = 0.01
    cold_probes, cold_powers = _solver_problem(rng, 16, 7, noise)
    cold = estimate_ml_covariance(cold_probes, cold_powers, noise)
    warm_probes, warm_powers = _solver_problem(rng, 16, 7, noise)
    warm = estimate_ml_covariance(
        warm_probes,
        warm_powers,
        noise,
        initial=cold.solution,
        initial_eig=cold.solution_eig,
    )
    full_probes, full_powers = _solver_problem(rng, 6, 12, noise)
    full = estimate_ml_covariance(full_probes, full_powers, noise, subspace=False)
    hasher = hashlib.blake2b(digest_size=16)
    for result in (cold, warm, full):
        hasher.update(result.solution.tobytes())
        hasher.update(np.asarray(result.history, dtype=float).tobytes())
        hasher.update(f"|{result.iterations}|{bool(result.converged)}|".encode())
        if result.solution_eig is not None:
            for array in result.solution_eig:
                hasher.update(array.tobytes())
    return hasher.hexdigest()


def ls_solver_digest() -> str:
    """Digest cold and warm-started least-squares + nuclear-norm solves."""
    rng = np.random.default_rng(SEED)
    noise = 0.01
    hasher = hashlib.blake2b(digest_size=16)
    for n, m in ((16, 7), (6, 12)):
        estimator = LsCovarianceEstimator()
        for _ in range(3):
            probes, powers = _solver_problem(rng, n, m, noise)
            hasher.update(estimator.estimate(probes, powers, noise).tobytes())
    return hasher.hexdigest()


def data_digest(result) -> str:
    canonical = dumps(result.data).encode("utf-8")
    return hashlib.blake2b(canonical, digest_size=16).hexdigest()


def _update_measurements(hasher, measurements, engine) -> None:
    hasher.update(np.array([m.power for m in measurements], dtype=float).tobytes())
    hasher.update(np.array([m.z for m in measurements], dtype=complex).tobytes())
    hasher.update(f"|{engine.interference_hits}|{engine.num_measurements}|".encode())


def probe_stream_digest() -> str:
    """Digest fused batches, a per-pair loop and Scan/Random alignments."""
    scenario = Scenario(_config())
    tx_codebook, rx_codebook = scenario.tx_codebook, scenario.rx_codebook
    channel = scenario.sample_channel(np.random.default_rng(SEED))
    num_rx = rx_codebook.num_beams
    flats = np.random.default_rng(SEED + 1).permutation(scenario.total_pairs)
    pairs = [BeamPair(*divmod(int(flat), num_rx)) for flat in flats]
    hasher = hashlib.blake2b(digest_size=16)
    for seed, probability in ((SEED, 0.0), (SEED + 2, 0.3)):
        engine = MeasurementEngine(
            channel,
            np.random.default_rng(seed),
            fading_blocks=4,
            interference_probability=probability,
            interference_power=0.5,
        )
        for batch in (flats[:5], flats[5:]):
            powers, z = engine.measure_pairs(tx_codebook, rx_codebook, batch)
            hasher.update(powers.tobytes())
            hasher.update(z.tobytes())
            hasher.update(f"|{engine.interference_hits}|{engine.num_measurements}|".encode())
    engine = MeasurementEngine(
        channel,
        np.random.default_rng(SEED + 3),
        fading_blocks=4,
        interference_probability=0.3,
        interference_power=0.5,
    )
    looped = [engine.measure_pair(tx_codebook, rx_codebook, pair) for pair in pairs]
    _update_measurements(hasher, looped, engine)
    for offset, scheme in enumerate((ScanSearch(), RandomSearch())):
        engine = MeasurementEngine(
            channel,
            np.random.default_rng(SEED + 4 + offset),
            fading_blocks=4,
            interference_probability=0.3,
            interference_power=0.5,
        )
        context = AlignmentContext(
            tx_codebook,
            rx_codebook,
            engine,
            MeasurementBudget.from_search_rate(scenario.total_pairs, 0.5),
        )
        result = scheme.align(context, np.random.default_rng(SEED + 6 + offset))
        _update_measurements(hasher, result.trace, engine)
        selected = result.selected
        used = result.measurements_used
        hasher.update(f"|{selected.tx_index}|{selected.rx_index}|{used}|".encode())
        hasher.update(np.array([result.selected_power]).tobytes())
    return hasher.hexdigest()


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
        for batch_trials in (1, 2, 4):
            assert sweep_checkpoint_digest(batch_trials) == SWEEP_CHECKPOINT_DIGEST

    def test_shard_spec_digest(self, environment):
        assert shard_spec_digest() == SHARD_SPEC_DIGEST

    def test_campaign_plan_digest(self, environment):
        assert _sweep_plan().digest == CAMPAIGN_PLAN_DIGEST

    def test_cell_plan_and_shard_digests(self, environment):
        plan = plan_cell(_cell_config(), shard_ues=5)
        assert len(plan.shards) == 3
        assert plan.digest == CELL_PLAN_DIGEST
        assert plan.shards[1].digest == CELL_SHARD_DIGEST

    def test_shard_artifact_bytes(self, environment, tmp_path):
        assert shard_artifact_digest(tmp_path) == SHARD_ARTIFACT_DIGEST

    def test_cell_summary_digest(self, environment):
        for batch_users in (None, 1, 8):
            assert cell_summary_digest(batch_users) == CELL_SUMMARY_DIGEST

    def test_ml_solver_digest(self, environment):
        assert ml_solver_digest() == ML_SOLVER_DIGEST

    def test_probe_stream_digest(self, environment):
        assert probe_stream_digest() == PROBE_STREAM_DIGEST

    def test_mac_overhead_digest(self, environment):
        assert data_digest(run_mac_overhead(quick=True)) == MAC_OVERHEAD_DIGEST

    def test_cell_search_digest(self, environment):
        assert data_digest(run_cell_search(quick=True)) == CELL_SEARCH_DIGEST

    def test_ls_solver_digest(self, environment):
        assert ls_solver_digest() == LS_SOLVER_DIGEST

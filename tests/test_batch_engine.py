"""Batched trial engine suite: bit-identity, masking, and fallbacks.

The batched engine (:mod:`repro.sim.batch` and the stacked kernels under
it) is admissible for the same reason the hot-path caches are: it is
*exact*. With a fixed seed, every outcome — down to the raw measurement
samples and the solver's per-iteration history — must be bit-identical
whether trials run serially, in one stacked block, or across worker
processes composed with in-process batches. This module pins those
guarantees down layer by layer: measurement fusion, the lockstep ML
solver (including partial-batch convergence masking and the
gufunc-absent fallback), the stacked SVT/soft-threshold kernels, and the
batched channel builder.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.estimation.batch as estimation_batch
from repro.channel.batch import mean_snr_matrices
from repro.core.base import AlignmentContext
from repro.estimation.batch import (
    estimate_ml_covariance_batch,
    soft_threshold_eigenvalues_batch,
)
from repro.estimation.ml_covariance import _soft_threshold_hot, estimate_ml_covariance
from repro.exceptions import (
    BudgetExhaustedError,
    ConfigurationError,
    ValidationError,
)
from repro.mc.alm import soft_threshold_entries
from repro.mc.svt import shrink_singular_values, shrink_singular_values_batch
from repro.measurement.budget import MeasurementBudget
from repro.measurement.measurer import MeasurementEngine
from repro.sim.batch import run_trial_block, run_trials_batched
from repro.sim.parallel import SchemeSpec, run_trials_parallel
from repro.sim.runner import run_trials, standard_schemes
from repro.types import BeamPair
from repro.utils.linalg import random_psd
from repro.utils.rng import trial_generator


def _deep_fingerprint(trials):
    """Every outcome field plus the raw measurement trace, byte for byte."""
    rows = []
    for trial in trials:
        for name, outcome in trial.items():
            result = outcome.result
            rows.append(
                (
                    name,
                    outcome.loss_db,
                    result.selected,
                    result.measurements_used,
                    result.selected_power,
                    [(m.pair, m.power, m.z) for m in result.trace],
                )
            )
    return rows


def _parallel_fingerprint(trials):
    return [
        (name, outcome.loss_db, outcome.selected, outcome.measurements_used)
        for trial in trials
        for name, outcome in trial.items()
    ]


def _probe_problems(batch, dimension=12, measurements=5, seed=31):
    """Independent (probes, powers) ML problems with unit-norm probes."""
    rng = np.random.default_rng(seed)
    problems = []
    for _ in range(batch):
        probes = rng.normal(size=(dimension, measurements)) + 1j * rng.normal(
            size=(dimension, measurements)
        )
        probes /= np.linalg.norm(probes, axis=0, keepdims=True)
        powers = np.abs(rng.normal(size=measurements)) * 0.1 + 0.01
        problems.append((probes, powers))
    return problems


def _solver_fingerprint(result):
    """Everything a SolverResult carries, hashable and byte-exact."""
    eig = None
    if result.solution_eig is not None:
        values, vectors = result.solution_eig
        eig = (values.tobytes(), vectors.tobytes())
    return (
        result.solution.tobytes(),
        result.iterations,
        result.converged,
        result.objective,
        tuple(result.history),
        eig,
    )


# ----------------------------------------------------------------------
# End-to-end: batched trials vs the serial runner
# ----------------------------------------------------------------------


class TestRunTrialsBatched:
    @pytest.mark.parametrize("batch_size", [1, 8, 32])
    def test_bit_identical_to_serial(self, small_scenario, batch_size):
        serial = run_trials(
            small_scenario, standard_schemes(measurements_per_slot=4), 0.3, 7,
            base_seed=41,
        )
        batched = run_trials_batched(
            small_scenario,
            standard_schemes(measurements_per_slot=4),
            0.3,
            7,
            base_seed=41,
            batch_size=batch_size,
        )
        assert _deep_fingerprint(batched) == _deep_fingerprint(serial)

    def test_block_matches_serial_per_trial(self, small_scenario):
        schemes = standard_schemes(measurements_per_slot=4)
        block = run_trial_block(
            small_scenario,
            schemes,
            0.3,
            [trial_generator(43, k) for k in range(3)],
        )
        serial = run_trials(
            small_scenario, standard_schemes(measurements_per_slot=4), 0.3, 3,
            base_seed=43,
        )
        assert _deep_fingerprint(block) == _deep_fingerprint(serial)

    def test_empty_block_is_empty(self, small_scenario):
        assert run_trial_block(
            small_scenario, standard_schemes(measurements_per_slot=4), 0.3, []
        ) == []

    def test_no_schemes_rejected(self, small_scenario):
        with pytest.raises(ConfigurationError):
            run_trial_block(small_scenario, {}, 0.3, [trial_generator(0, 0)])

    def test_validation(self, small_scenario):
        schemes = standard_schemes(measurements_per_slot=4)
        with pytest.raises(ConfigurationError):
            run_trials_batched(small_scenario, schemes, 0.3, 0)
        with pytest.raises(ConfigurationError):
            run_trials_batched(small_scenario, schemes, 0.3, 2, batch_size=0)

    def test_parallel_composes_with_batching(self, small_config):
        specs = (
            SchemeSpec.of("Random"),
            SchemeSpec.of("Scan"),
            SchemeSpec.of("Proposed", measurements_per_slot=4),
        )
        reference = run_trials_parallel(
            small_config, specs, 0.3, 5, base_seed=47, max_workers=1
        )
        composed = run_trials_parallel(
            small_config,
            specs,
            0.3,
            5,
            base_seed=47,
            max_workers=2,
            batch_trials=2,
        )
        assert _parallel_fingerprint(composed) == _parallel_fingerprint(reference)

    def test_parallel_batch_trials_validation(self, small_config):
        with pytest.raises(ConfigurationError):
            run_trials_parallel(
                small_config,
                (SchemeSpec.of("Random"),),
                0.3,
                2,
                max_workers=1,
                batch_trials=0,
            )


# ----------------------------------------------------------------------
# Measurement fusion
# ----------------------------------------------------------------------


class TestMeasurePairs:
    def _pairs(self, count=6):
        # Stays inside the fixtures' 4 TX x 18 RX codebooks.
        return [BeamPair(index % 4, index + 1) for index in range(count)]

    def test_fused_matches_loop_and_stream_position(
        self, small_channel, tx_codebook, rx_codebook
    ):
        """Fused draws are bitwise the loop's, and leave the RNG in the
        exact same stream position (nothing downstream can diverge)."""
        pairs = self._pairs()
        fused_engine = MeasurementEngine(
            small_channel, np.random.default_rng(5), fading_blocks=4
        )
        loop_engine = MeasurementEngine(
            small_channel, np.random.default_rng(5), fading_blocks=4
        )
        fused = fused_engine.measure_pairs(tx_codebook, rx_codebook, pairs)
        looped = [
            loop_engine.measure_pair(tx_codebook, rx_codebook, pair) for pair in pairs
        ]
        assert [(m.pair, m.power, m.z) for m in fused] == [
            (m.pair, m.power, m.z) for m in looped
        ]
        assert fused_engine._rng.standard_normal() == loop_engine._rng.standard_normal()

    def test_empty_pairs(self, engine, tx_codebook, rx_codebook):
        assert engine.measure_pairs(tx_codebook, rx_codebook, []) == []

    def test_interference_falls_back_to_loop(
        self, small_channel, tx_codebook, rx_codebook
    ):
        """With interference the dwells draw data-dependently, so the
        fused path must route through the per-pair loop — still matching
        a hand-rolled loop draw for draw."""
        pairs = self._pairs()
        kwargs = dict(
            fading_blocks=4, interference_probability=0.5, interference_power=1.0
        )
        fused_engine = MeasurementEngine(
            small_channel, np.random.default_rng(9), **kwargs
        )
        loop_engine = MeasurementEngine(
            small_channel, np.random.default_rng(9), **kwargs
        )
        fused = fused_engine.measure_pairs(tx_codebook, rx_codebook, pairs)
        looped = [
            loop_engine.measure_pair(tx_codebook, rx_codebook, pair) for pair in pairs
        ]
        assert [(m.power, m.z) for m in fused] == [(m.power, m.z) for m in looped]
        assert fused_engine.interference_hits == loop_engine.interference_hits


class TestMeasureMany:
    def _context(self, tx_codebook, rx_codebook, engine, rate=0.5):
        total = tx_codebook.num_beams * rx_codebook.num_beams
        budget = MeasurementBudget.from_search_rate(total, rate)
        return AlignmentContext(tx_codebook, rx_codebook, engine, budget)

    def test_records_like_measure(self, tx_codebook, rx_codebook, engine):
        context = self._context(tx_codebook, rx_codebook, engine)
        pairs = [BeamPair(0, 0), BeamPair(1, 3), BeamPair(2, 7)]
        measurements = context.measure_many(pairs, slot=2)
        assert [m.pair for m in measurements] == pairs
        assert context.num_measurements == len(pairs)
        assert [m.pair for m in context.trace] == pairs
        for pair in pairs:
            assert context.is_measured(pair)

    def test_duplicate_pairs_rejected(self, tx_codebook, rx_codebook, engine):
        context = self._context(tx_codebook, rx_codebook, engine)
        with pytest.raises(ValidationError):
            context.measure_many([BeamPair(0, 0), BeamPair(0, 0)])

    def test_already_measured_rejected(self, tx_codebook, rx_codebook, engine):
        context = self._context(tx_codebook, rx_codebook, engine)
        context.measure(BeamPair(1, 1))
        with pytest.raises(ValidationError):
            context.measure_many([BeamPair(0, 0), BeamPair(1, 1)])

    def test_budget_charged_before_any_measurement(
        self, tx_codebook, rx_codebook, engine
    ):
        """An oversized batch raises before a single dwell happens."""
        total = tx_codebook.num_beams * rx_codebook.num_beams
        budget = MeasurementBudget(total_pairs=total, limit=2)
        context = AlignmentContext(tx_codebook, rx_codebook, engine, budget)
        with pytest.raises(BudgetExhaustedError):
            context.measure_many([BeamPair(0, 0), BeamPair(1, 1), BeamPair(2, 2)])
        assert context.num_measurements == 0
        assert context.trace == []
        assert not context.is_measured(BeamPair(0, 0))

    def test_empty_batch(self, tx_codebook, rx_codebook, engine):
        context = self._context(tx_codebook, rx_codebook, engine)
        assert context.measure_many([]) == []
        assert context.num_measurements == 0


# ----------------------------------------------------------------------
# Lockstep batched ML solver
# ----------------------------------------------------------------------


class TestBatchedMlSolver:
    def test_bit_identical_to_serial(self):
        problems = _probe_problems(6)
        probes = np.stack([p for p, _ in problems])
        powers = np.stack([w for _, w in problems])
        batched = estimate_ml_covariance_batch(probes, powers, 0.01)
        for (probe, power), result in zip(problems, batched):
            serial = estimate_ml_covariance(probe, power, 0.01)
            assert _solver_fingerprint(result) == _solver_fingerprint(serial)

    def test_partial_batch_convergence_masking(self):
        """A batch where problems converge at different iterations must
        leave each problem's trajectory untouched by its neighbours."""
        problems = _probe_problems(4, seed=37)
        probes = np.stack([p for p, _ in problems])
        powers = np.stack([w for _, w in problems])
        # A loose tolerance for a quick-converging mix; per-problem
        # iteration counts then genuinely differ inside one batch.
        batched = estimate_ml_covariance_batch(probes, powers, 0.01, tolerance=5e-3)
        iteration_counts = {result.iterations for result in batched}
        assert len(iteration_counts) > 1, "fixture no longer mixes convergence"
        for (probe, power), result in zip(problems, batched):
            serial = estimate_ml_covariance(probe, power, 0.01, tolerance=5e-3)
            assert _solver_fingerprint(result) == _solver_fingerprint(serial)

    def test_gufunc_absent_fallback(self, monkeypatch):
        """Without the numpy-internal eigh gufunc the public stacked
        ``np.linalg.eigh`` takes over, bit-identically."""
        problems = _probe_problems(3, seed=41)
        probes = np.stack([p for p, _ in problems])
        powers = np.stack([w for _, w in problems])
        expected = estimate_ml_covariance_batch(probes, powers, 0.01)
        monkeypatch.setattr(estimation_batch, "_EIGH_LOWER", None)
        fallback = estimate_ml_covariance_batch(probes, powers, 0.01)
        assert [_solver_fingerprint(r) for r in fallback] == [
            _solver_fingerprint(r) for r in expected
        ]

    def test_warm_start_matches_serial(self):
        problems = _probe_problems(3, seed=43)
        probes = np.stack([p for p, _ in problems])
        powers = np.stack([w for _, w in problems])
        initials = [
            random_psd(probes.shape[1], 3, np.random.default_rng(100 + k))
            for k in range(3)
        ]
        batched = estimate_ml_covariance_batch(
            probes, powers, 0.01, initials=initials
        )
        for (probe, power), initial, result in zip(problems, initials, batched):
            serial = estimate_ml_covariance(probe, power, 0.01, initial=initial)
            assert _solver_fingerprint(result) == _solver_fingerprint(serial)

    def test_validation(self):
        probes = np.zeros((2, 4, 3), dtype=complex)
        powers = np.full((2, 3), 0.1)
        with pytest.raises(ValidationError):
            estimate_ml_covariance_batch(probes[0], powers[0], 0.01)
        with pytest.raises(ValidationError):
            estimate_ml_covariance_batch(probes, powers[:1], 0.01)
        with pytest.raises(ValidationError):
            estimate_ml_covariance_batch(probes, -powers - 1.0, 0.01)
        with pytest.raises(ValidationError):
            estimate_ml_covariance_batch(probes, powers, 0.01, initials=[None])


# ----------------------------------------------------------------------
# Stacked kernels
# ----------------------------------------------------------------------


class TestStackedKernels:
    def _psd_stack(self, batch=5, size=8, seed=51):
        rng = np.random.default_rng(seed)
        return np.stack([random_psd(size, 3, rng) for _ in range(batch)])

    def test_eigenvalue_prox_matches_hot_path(self):
        matrices = self._psd_stack()
        thresholds = np.linspace(0.01, 0.2, matrices.shape[0])
        stacked = soft_threshold_eigenvalues_batch(matrices, thresholds)
        for index in range(matrices.shape[0]):
            serial = _soft_threshold_hot(matrices[index], float(thresholds[index]))
            assert stacked[index].tobytes() == serial.tobytes()

    def test_eigenvalue_prox_scalar_threshold(self):
        matrices = self._psd_stack()
        stacked = soft_threshold_eigenvalues_batch(matrices, 0.05)
        for index in range(matrices.shape[0]):
            serial = _soft_threshold_hot(matrices[index], 0.05)
            assert stacked[index].tobytes() == serial.tobytes()

    def test_svt_shrink_matches_serial(self):
        rng = np.random.default_rng(53)
        matrices = rng.normal(size=(4, 6, 5)) + 1j * rng.normal(size=(4, 6, 5))
        thresholds = np.array([0.1, 0.5, 1.0, 1e6])  # last slice fully shrunk
        stacked = shrink_singular_values_batch(matrices, thresholds)
        for index in range(matrices.shape[0]):
            serial = shrink_singular_values(matrices[index], float(thresholds[index]))
            assert stacked[index].tobytes() == serial.tobytes()
        assert np.all(stacked[-1] == 0.0)

    def test_svt_shrink_validation(self):
        with pytest.raises(ValidationError):
            shrink_singular_values_batch(np.zeros((3, 3)), 0.1)
        with pytest.raises(ValidationError):
            shrink_singular_values_batch(np.zeros((2, 3, 3)), -0.1)

    def test_soft_threshold_entries_buffers_match_plain(self):
        rng = np.random.default_rng(57)
        matrix = rng.normal(size=(12, 9)) + 1j * rng.normal(size=(12, 9))
        plain = soft_threshold_entries(matrix, 0.7)
        workspace: dict = {}
        out = np.empty_like(matrix)
        fused = soft_threshold_entries(matrix, 0.7, workspace=workspace, out=out)
        assert fused is out
        assert fused.tobytes() == plain.tobytes()
        # Reference semantics, including signed zeros from np.where.
        magnitude = np.abs(matrix)
        scale = np.where(
            magnitude <= 0.7, 0.0, (magnitude - 0.7) / np.maximum(magnitude, 1e-30)
        )
        assert plain.tobytes() == (matrix * scale).tobytes()
        # The workspace is reused, not regrown, on the next call.
        buffers = {key: id(value) for key, value in workspace.items()}
        soft_threshold_entries(matrix, 0.3, workspace=workspace, out=out)
        assert buffers == {key: id(value) for key, value in workspace.items()}

    def test_soft_threshold_entries_out_validation(self):
        matrix = np.ones((3, 3), dtype=complex)
        with pytest.raises(ValidationError):
            soft_threshold_entries(matrix, 0.1, out=np.empty((2, 2), dtype=complex))


# ----------------------------------------------------------------------
# Batched channel builder
# ----------------------------------------------------------------------


class TestChannelBatch:
    def test_batch_realizations_match_serial(self, small_scenario):
        batched = small_scenario.sample_channel_batch(
            [trial_generator(61, k) for k in range(5)]
        )
        serial = [
            small_scenario.sample_channel(trial_generator(61, k)) for k in range(5)
        ]
        for left, right in zip(batched, serial):
            assert left.tx_steering.tobytes() == right.tx_steering.tobytes()
            assert left.rx_steering.tobytes() == right.rx_steering.tobytes()
            assert left.powers.tobytes() == right.powers.tobytes()

    def test_mean_snr_matrices_match_serial(self, small_scenario):
        channels = small_scenario.sample_channel_batch(
            [trial_generator(67, k) for k in range(4)]
        )
        context = small_scenario.context()
        stacked = mean_snr_matrices(
            channels, context.tx_codebook, context.rx_codebook
        )
        for channel, matrix in zip(channels, stacked):
            serial = channel.mean_snr_matrix(context.tx_codebook, context.rx_codebook)
            assert matrix.tobytes() == serial.tobytes()

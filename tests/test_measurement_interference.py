"""Tests for impulsive-interference injection in the measurement engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.measurement.measurer import MeasurementEngine
from repro.types import BeamPair


def _flats(pairs, rx_codebook):
    """Flat pair indices ``tx * card(V) + rx``, as measure_pairs takes them."""
    return np.array([p.tx_index * rx_codebook.num_beams + p.rx_index for p in pairs])


class TestInterferenceConfig:
    def test_validation(self, small_channel, rng):
        with pytest.raises(ValidationError):
            MeasurementEngine(small_channel, rng, interference_probability=1.5)
        with pytest.raises(ValidationError):
            MeasurementEngine(small_channel, rng, interference_power=-1.0)

    @pytest.mark.parametrize("power", [float("nan"), float("inf")])
    def test_non_finite_power_rejected(self, small_channel, rng, power):
        with pytest.raises(ValidationError, match="must be finite"):
            MeasurementEngine(
                small_channel,
                rng,
                interference_probability=0.5,
                interference_power=power,
            )

    def test_defaults_clean(self, small_channel, rng, tx_codebook, rx_codebook):
        engine = MeasurementEngine(small_channel, rng)
        for index in range(10):
            engine.measure_pair(tx_codebook, rx_codebook, BeamPair(0, index))
        assert engine.interference_hits == 0


class TestInterferenceEffects:
    def test_hit_rate(self, small_channel, tx_codebook, rx_codebook):
        engine = MeasurementEngine(
            small_channel,
            np.random.default_rng(0),
            interference_probability=0.3,
            interference_power=1.0,
        )
        count = 1000
        for index in range(count):
            engine.measure_pair(
                tx_codebook, rx_codebook, BeamPair(index % 4, index // 4 % 18)
            )
        # measure() allows repeated pairs at the engine level; only the
        # context deduplicates. Hit rate concentrates around 30%.
        assert engine.interference_hits == pytest.approx(0.3 * count, rel=0.2)

    def test_power_inflated_on_average(self, small_channel, tx_codebook, rx_codebook):
        pair = BeamPair(0, 0)
        clean = MeasurementEngine(small_channel, np.random.default_rng(1))
        dirty = MeasurementEngine(
            small_channel,
            np.random.default_rng(2),
            interference_probability=1.0,
            interference_power=0.5,
        )
        clean_mean = np.mean(
            [clean.measure_pair(tx_codebook, rx_codebook, pair).power for _ in range(3000)]
        )
        dirty_mean = np.mean(
            [dirty.measure_pair(tx_codebook, rx_codebook, pair).power for _ in range(3000)]
        )
        # Always-on CN(0, 0.5) interference adds exactly 0.5 on average.
        assert dirty_mean - clean_mean == pytest.approx(0.5, rel=0.15)

    def test_zero_power_interference_harmless(
        self, small_channel, tx_codebook, rx_codebook
    ):
        engine = MeasurementEngine(
            small_channel,
            np.random.default_rng(3),
            interference_probability=1.0,
            interference_power=0.0,
        )
        m = engine.measure_pair(tx_codebook, rx_codebook, BeamPair(1, 1))
        assert np.isfinite(m.power)


class TestFusedInterferencePath:
    """measure_pairs with interference fuses; stream stays bit-identical."""

    def _engines(self, small_channel, seed=42, probability=0.3, blocks=4):
        return [
            MeasurementEngine(
                small_channel,
                np.random.default_rng(seed),
                fading_blocks=blocks,
                interference_probability=probability,
                interference_power=2.5,
            )
            for _ in range(2)
        ]

    def test_bit_identical_to_serial_loop(
        self, small_channel, tx_codebook, rx_codebook
    ):
        fused_engine, serial_engine = self._engines(small_channel)
        pairs = [BeamPair(t, r) for t in range(4) for r in range(12)]
        powers, z = fused_engine.measure_pairs(
            tx_codebook, rx_codebook, _flats(pairs, rx_codebook)
        )
        serial = [
            serial_engine.measure_pair(tx_codebook, rx_codebook, pair)
            for pair in pairs
        ]
        assert powers.tolist() == [m.power for m in serial]
        assert z.tolist() == [m.z for m in serial]
        assert fused_engine.interference_hits == serial_engine.interference_hits > 0
        assert fused_engine.num_measurements == len(pairs)

    def test_stream_position_identical_after_batch(
        self, small_channel, tx_codebook, rx_codebook
    ):
        # After a fused batch both engines' generators must sit at the
        # same stream position: the next draw agrees bitwise.
        fused_engine, serial_engine = self._engines(small_channel, seed=7)
        pairs = [BeamPair(t, r) for t in range(3) for r in range(6)]
        fused_engine.measure_pairs(tx_codebook, rx_codebook, _flats(pairs, rx_codebook))
        for pair in pairs:
            serial_engine.measure_pair(tx_codebook, rx_codebook, pair)
        after_fused = fused_engine.measure_pair(
            tx_codebook, rx_codebook, BeamPair(0, 17)
        )
        after_serial = serial_engine.measure_pair(
            tx_codebook, rx_codebook, BeamPair(0, 17)
        )
        assert after_fused.power == after_serial.power
        assert after_fused.z == after_serial.z

    def test_certain_hit_probability(self, small_channel, tx_codebook, rx_codebook):
        fused_engine, serial_engine = self._engines(small_channel, probability=1.0)
        pairs = [BeamPair(0, r) for r in range(10)]
        powers, _ = fused_engine.measure_pairs(
            tx_codebook, rx_codebook, _flats(pairs, rx_codebook)
        )
        serial = [
            serial_engine.measure_pair(tx_codebook, rx_codebook, pair)
            for pair in pairs
        ]
        assert fused_engine.interference_hits == len(pairs)
        assert powers.tolist() == [m.power for m in serial]


class TestInterferenceExperiment:
    def test_quick_run(self):
        import repro.experiments as experiments

        result = experiments.run("ext-interference", quick=True)
        means = result.data["mean_loss_db"]
        assert set(means) == {"Random", "Proposed (ML)", "Proposed (backproj)"}
        for series in means.values():
            assert len(series) == 2  # quick: p = 0.0 and 0.3
            assert all(np.isfinite(v) for v in series)

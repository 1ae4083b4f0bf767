"""Beam-pair measurement engine.

One *measurement* is the full Eq. (4)–(11) pipeline for a beam pair
``(u, v)``: draw an instantaneous fading realization ``H`` (independent
across measurements, per the paper's assumption below Eq. 11), form the
normalized matched-filter output ``z = v^H H u + n`` with
``n ~ CN(0, 1/gamma)``, and report the power statistic ``w = |z|^2``.

The engine owns the RNG and the measurement counter, so every scheme in
:mod:`repro.core` and :mod:`repro.baselines` pays for measurements through
the same meter — the Search Rate comparisons are apples-to-apples by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.arrays.codebook import Codebook
from repro.channel.base import ClusteredChannel
from repro.exceptions import ValidationError
from repro.types import BeamPair
from repro.utils.rng import complex_normal
from repro.utils.validation import check_unit_norm

__all__ = ["Measurement", "MeasurementEngine"]


@dataclass(frozen=True)
class Measurement:
    """Record of a single beam-pair measurement.

    ``power`` is the statistic ``w = |z|^2`` (Eq. 11); ``pair`` is absent
    for off-codebook probes (e.g. hierarchical wide beams).
    """

    power: float
    z: complex
    pair: Optional[BeamPair] = None
    slot: Optional[int] = None

    def __post_init__(self) -> None:
        if self.power < 0:
            raise ValidationError(f"measurement power must be >= 0, got {self.power}")


class MeasurementEngine:
    """Produces noisy beam-pair measurements from a channel realization.

    ``fading_blocks`` sets how many independent fading realizations one
    measurement dwell averages over. With 1 block the power statistic is
    a single exponential sample (the paper's Eq. 11 setting); larger
    values model a longer pilot dwell spanning several coherence blocks,
    which sharpens pair *selection* — in particular, with enough blocks
    an exhaustive scan converges to the true optimal pair, the paper's
    stated 100%-search-rate behaviour. The expected value of the
    statistic is ``lambda`` (Eq. 14) in both cases, so the estimation
    stack is unaffected.

    ``interference_probability`` / ``interference_power`` model impulsive
    co-channel interference: each dwell is independently hit with the
    given probability, adding a ``CN(0, interference_power)`` component
    to every block of that dwell. A hit inflates the power statistic —
    creating exactly the phantom-beam corruption that robust estimators
    (and the paper's exponential-power likelihood, to a degree) must
    survive. The default is a clean channel.
    """

    def __init__(
        self,
        channel: ClusteredChannel,
        rng: np.random.Generator,
        fading_blocks: int = 1,
        interference_probability: float = 0.0,
        interference_power: float = 0.0,
    ) -> None:
        if fading_blocks < 1:
            raise ValidationError(f"fading_blocks must be >= 1, got {fading_blocks}")
        if not 0.0 <= interference_probability <= 1.0:
            raise ValidationError(
                f"interference_probability must be in [0, 1],"
                f" got {interference_probability}"
            )
        if interference_power < 0.0:
            raise ValidationError(
                f"interference_power must be >= 0, got {interference_power}"
            )
        self._channel = channel
        self._rng = rng
        self._fading_blocks = int(fading_blocks)
        self._interference_probability = float(interference_probability)
        self._interference_power = float(interference_power)
        self._count = 0
        self._interference_hits = 0

    @property
    def channel(self) -> ClusteredChannel:
        """The underlying channel."""
        return self._channel

    @property
    def num_measurements(self) -> int:
        """Total measurements taken so far through this engine."""
        return self._count

    @property
    def fading_blocks(self) -> int:
        """Independent fading blocks averaged per measurement dwell."""
        return self._fading_blocks

    @property
    def interference_hits(self) -> int:
        """How many dwells were struck by interference so far."""
        return self._interference_hits

    @property
    def noise_variance(self) -> float:
        """Post-matched-filter noise variance ``1 / gamma`` (Eq. 14–15)."""
        return 1.0 / self._channel.snr

    def measure_vectors(
        self,
        tx_beam: np.ndarray,
        rx_beam: np.ndarray,
        slot: Optional[int] = None,
        pair: Optional[BeamPair] = None,
    ) -> Measurement:
        """Measure an arbitrary unit-norm beam pair (fresh fading + noise)."""
        tx_beam = check_unit_norm(np.asarray(tx_beam, dtype=complex), name="tx_beam")
        rx_beam = check_unit_norm(np.asarray(rx_beam, dtype=complex), name="rx_beam")
        faded = self._channel.sample_beamformed(
            tx_beam, rx_beam, self._rng, count=self._fading_blocks
        )
        return self._finish_measurement(faded, pair, slot)

    def measure_pair(
        self,
        tx_codebook: Codebook,
        rx_codebook: Codebook,
        pair: BeamPair,
        slot: Optional[int] = None,
    ) -> Measurement:
        """Measure a codebook beam pair, tagging the record with its indices.

        Codebook beams are unit-norm by construction, so this path skips
        the per-dwell norm checks and projects through the channel's
        memoized :class:`~repro.channel.base.CodebookCoupling` table —
        the per-trial hot loop costs one ``K``-dimensional fading draw
        per dwell instead of two array-sized projections.
        """
        coupling = self._channel.codebook_couplings(tx_codebook, rx_codebook)
        coefficients = coupling.coefficients(pair.tx_index, pair.rx_index)
        faded = self._channel.sample_coefficients(
            coefficients, self._rng, count=self._fading_blocks
        )
        return self._finish_measurement(faded, pair, slot)

    def measure_pairs(
        self,
        tx_codebook: Codebook,
        rx_codebook: Codebook,
        pairs: List[BeamPair],
        slot: Optional[int] = None,
    ) -> List[Measurement]:
        """Measure several codebook beam pairs in one fused RNG block.

        This is bit-identical to calling
        :meth:`measure_pair` per pair in order: the serial path
        consumes, per measurement, ``count*K`` gain reals, ``count*K``
        gain imaginaries, ``count`` noise reals, and ``count`` noise
        imaginaries — one row-major ``standard_normal`` block with rows
        laid out that way draws the exact same stream values, and the
        matched-filter outputs stack into one batched matvec.

        With interference enabled each dwell consumes a data-dependent
        number of draws (one uniform, plus an interference block on a
        hit), so the draws cannot collapse into a single ``(P, W)``
        block. They still fuse: per pair the draw order is replayed
        exactly — one ``standard_normal`` row, one uniform, the hit
        rows' interference draws — and the matched-filter math then runs
        as one batched call with the hit rows adjusted after,
        bit-identical to the serial loop.
        """
        if not pairs:
            return []
        coupling = self._channel.codebook_couplings(tx_codebook, rx_codebook)
        tx_indices = [pair.tx_index for pair in pairs]
        rx_indices = [pair.rx_index for pair in pairs]
        coefficients = coupling.rx_proj[rx_indices] * coupling.tx_proj[:, tx_indices].T
        count = self._fading_blocks
        num_subpaths = self._channel.num_subpaths
        gain_block = count * num_subpaths
        width = 2 * gain_block + 2 * count
        hit_rows: List[int] = []
        hit_draws: List[np.ndarray] = []
        if self._interference_probability > 0.0:
            # Serial draw order per pair: gains+noise, then the hit
            # uniform, then (on a hit) the interference block. Sequential
            # standard_normal calls consume the same ziggurat stream as
            # one fused block, so replaying the order row by row keeps
            # the draws bit-identical to measure_pair.
            block = np.empty((len(pairs), width))
            for row in range(len(pairs)):
                block[row] = self._rng.standard_normal(width)
                if self._rng.uniform() < self._interference_probability:
                    hit_rows.append(row)
                    hit_draws.append(self._rng.standard_normal(2 * count))
        else:
            block = self._rng.standard_normal((len(pairs), width))
        gain_scale = np.sqrt(0.5)
        noise_scale = np.sqrt(self.noise_variance / 2.0)
        gains = (
            (gain_scale * block[:, :gain_block]).reshape(-1, count, num_subpaths)
            + 1j
            * (gain_scale * block[:, gain_block : 2 * gain_block]).reshape(
                -1, count, num_subpaths
            )
        ) * self._channel.sqrt_powers
        faded = np.matmul(gains, coefficients[:, :, None])[..., 0]
        noise = noise_scale * block[
            :, 2 * gain_block : 2 * gain_block + count
        ] + 1j * (noise_scale * block[:, 2 * gain_block + count :])
        samples = faded + noise
        powers = np.mean(np.abs(samples) ** 2, axis=1)
        if hit_rows:
            # Match the serial arithmetic exactly: (faded + noise) +
            # interference, then the power statistic over the final
            # samples — per row, so the mean reduction order is the
            # serial one.
            self._interference_hits += len(hit_rows)
            scale = np.sqrt(self._interference_power / 2.0)
            for row, draws in zip(hit_rows, hit_draws):
                interference = scale * draws[:count] + 1j * (scale * draws[count:])
                samples[row] = samples[row] + interference
                powers[row] = np.mean(np.abs(samples[row]) ** 2)
        measurements = []
        for row, pair in enumerate(pairs):
            self._count += 1
            measurements.append(
                Measurement(
                    power=float(powers[row]),
                    z=complex(samples[row, -1]),
                    pair=pair,
                    slot=slot,
                )
            )
        return measurements

    def _finish_measurement(
        self,
        faded: np.ndarray,
        pair: Optional[BeamPair],
        slot: Optional[int],
    ) -> Measurement:
        """Add noise (and any interference), meter, and package a dwell."""
        noise = complex_normal(
            self._rng, self._fading_blocks, variance=self.noise_variance
        )
        samples = faded + noise
        if (
            self._interference_probability > 0.0
            and self._rng.uniform() < self._interference_probability
        ):
            self._interference_hits += 1
            samples = samples + complex_normal(
                self._rng, self._fading_blocks, variance=self._interference_power
            )
        z = complex(samples[-1])
        self._count += 1
        return Measurement(
            power=float(np.mean(np.abs(samples) ** 2)), z=z, pair=pair, slot=slot
        )

    def expected_power(self, tx_beam: np.ndarray, rx_beam: np.ndarray) -> float:
        """Exact ``E[w] = v^H (Q_u + I/gamma) v = lambda`` (Eq. 14)."""
        tx_beam = check_unit_norm(np.asarray(tx_beam, dtype=complex), name="tx_beam")
        rx_beam = check_unit_norm(np.asarray(rx_beam, dtype=complex), name="rx_beam")
        q_u = self._channel.rx_covariance(tx_beam)
        signal = float(np.real(rx_beam.conj() @ q_u @ rx_beam))
        return signal + self.noise_variance

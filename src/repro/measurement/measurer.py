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

import copy
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.arrays.codebook import Codebook
from repro.channel.base import ClusteredChannel
from repro.exceptions import ValidationError
from repro.types import BeamPair
from repro.utils.rng import complex_normal, copy_generator
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
        if not math.isfinite(interference_power) or interference_power < 0.0:
            raise ValidationError(
                f"interference_power must be finite and >= 0, got {interference_power}"
            )
        self._channel = channel
        self._rng = rng
        self._fading_blocks = int(fading_blocks)
        self._interference_probability = float(interference_probability)
        self._interference_power = float(interference_power)
        self._count = 0
        self._interference_hits = 0

    def fork(self) -> "MeasurementEngine":
        """An engine on the same channel that continues from here alone.

        It starts with a copy of this engine's RNG state and counters, so
        it draws what this engine would draw next, and measurements on
        either engine never move the other.
        """
        child = copy.copy(self)
        child._rng = copy_generator(self._rng)
        return child

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
        pairs: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Measure several codebook beam pairs in one fused RNG block.

        ``pairs`` holds flat pair indices ``tx * card(V) + rx``; the
        result is the ``(powers, z)`` arrays of the dwells, in order —
        no per-pair record is built. The caller validates the indices.

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
        num_pairs = len(pairs)
        if not num_pairs:
            return np.empty(0), np.empty(0, dtype=complex)
        coupling = self._channel.codebook_couplings(tx_codebook, rx_codebook)
        tx_indices, rx_indices = np.divmod(pairs, rx_codebook.num_beams)
        coefficients = coupling.rx_proj[rx_indices] * coupling.tx_proj[:, tx_indices].T
        count = self._fading_blocks
        num_subpaths = self._channel.num_subpaths
        gain_block = count * num_subpaths
        width = 2 * gain_block + 2 * count
        hit_rows: List[int] = []
        hit_draws: List[np.ndarray] = []
        probability = self._interference_probability
        if probability > 0.0:
            # Serial draw order per pair: gains+noise, then the hit
            # uniform, then (on a hit) the interference block. Sequential
            # standard_normal calls consume the same ziggurat stream as
            # one fused block, so replaying the order row by row keeps
            # the draws bit-identical to measure_pair. ``random()`` is
            # the ``uniform()`` draw without its ``0 + 1 * x`` affine map,
            # and filling each row in place skips a per-dwell allocation.
            block = np.empty((num_pairs, width))
            standard_normal = self._rng.standard_normal
            uniform = self._rng.random
            for row in range(num_pairs):
                standard_normal(out=block[row])
                if uniform() < probability:
                    hit_rows.append(row)
                    hit_draws.append(standard_normal(2 * count))
        else:
            block = self._rng.standard_normal((num_pairs, width))
        # ``(s*x_re + 1j*(s*x_im)) * sqrt_powers`` promotes the real factor
        # to complex, and its zero imaginary part contributes exact zeros:
        # writing ``(s*x) * sqrt_powers`` into each half of one complex
        # buffer gives the same bits without the temporaries.
        gain_scale = np.sqrt(0.5)
        sqrt_powers = self._channel.sqrt_powers
        gains = np.empty((num_pairs, count, num_subpaths), dtype=complex)
        for half, start in ((gains.real, 0), (gains.imag, gain_block)):
            np.multiply(
                (gain_scale * block[:, start : start + gain_block]).reshape(
                    -1, count, num_subpaths
                ),
                sqrt_powers,
                out=half,
            )
        # The same holds for the noise: adding each scaled half in place
        # equals ``faded + (s*n_re + 1j*(s*n_im))``.
        samples = np.matmul(gains, coefficients[:, :, None])[..., 0]
        noise_scale = np.sqrt(self.noise_variance / 2.0)
        noise_start = 2 * gain_block
        samples.real += noise_scale * block[:, noise_start : noise_start + count]
        samples.imag += noise_scale * block[:, noise_start + count :]
        powers = np.mean(np.abs(samples) ** 2, axis=1)
        if hit_rows:
            # Match the serial arithmetic exactly: (faded + noise) +
            # interference, then the power statistic over the final
            # samples. A row-wise ``axis=1`` mean reduces each row in the
            # same order as the serial 1-D mean.
            self._interference_hits += len(hit_rows)
            scale = np.sqrt(self._interference_power / 2.0)
            draws = np.stack(hit_draws)
            hits = np.asarray(hit_rows)
            samples[hits] += scale * draws[:, :count] + 1j * (scale * draws[:, count:])
            powers[hits] = np.mean(np.abs(samples[hits]) ** 2, axis=1)
        self._count += num_pairs
        return powers, samples[:, -1]

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

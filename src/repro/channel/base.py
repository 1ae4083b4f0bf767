"""Clustered mmWave channel model.

The channel between an ``M``-element TX array and an ``N``-element RX
array is a sum of discrete subpaths:

``H = sum_k g_k * a_rx(k) a_tx(k)^H``,   ``g_k ~ CN(0, P_k)``

with the subpath gains ``g_k`` redrawn independently for every measurement
(correlated Rayleigh block fading, Eq. 5 of the paper) while the subpath
geometry — and therefore the spatial covariance — stays fixed. This is
exactly the structure that makes the covariance low-rank: its rank equals
the number of subpaths, and with 2–3 dominant narrow clusters most energy
lives in a handful of spatial dimensions (Sec. IV-A1).

Conditioned on a TX beam ``u`` the RX-side covariance is

``Q_u = E[H u u^H H^H] = sum_k P_k |a_tx(k)^H u|^2 a_rx(k) a_rx(k)^H``

and the mean beamformed SNR of a pair (Eq. 14's ``lambda`` without the
noise term, scaled by ``gamma = Es / N0``) is

``R(u, v) = gamma * v^H Q_u v = gamma * sum_k P_k |a_tx^H u|^2 |a_rx^H v|^2``.

The closed-form mean-SNR matrix over a full codebook product gives the
exhaustive-search optimum (Eq. 2) without simulating 4096 measurements.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.arrays.geometry import ArrayGeometry
from repro.arrays.codebook import Codebook
from repro.arrays.steering import angle_phases
from repro.exceptions import ValidationError
from repro.utils.geometry import Direction
from repro.utils.linalg import hermitian
from repro.utils.rng import complex_normal
from repro.utils.validation import check_positive, check_unit_norm

__all__ = ["Subpath", "CodebookCoupling", "ClusteredChannel", "subpaths_from_columns"]


@dataclass(frozen=True)
class CodebookCoupling:
    """Precomputed beam/subpath projections for a codebook pair.

    ``tx_proj[:, u] = a_tx^H u`` (shape ``(K, card(U))``) and
    ``rx_proj[v, :] = v^H a_rx`` (shape ``(card(V), K)``) — every
    per-subpath coupling ``c_k`` of every codebook beam pair, computed as
    two stacked GEMMs. One table serves every measurement of a trial (and
    every scheme in it), replacing the two per-measurement matrix-vector
    products of :meth:`ClusteredChannel.beamformed_coefficients`.
    """

    tx_proj: np.ndarray
    rx_proj: np.ndarray

    def coefficients(self, tx_index: int, rx_index: int) -> np.ndarray:
        """Per-subpath couplings ``c_k`` of codebook pair ``(u, v)``."""
        return self.rx_proj[rx_index] * self.tx_proj[:, tx_index]


@dataclass(frozen=True)
class Subpath:
    """One resolvable propagation path.

    ``power`` is the mean power gain ``P_k = E[|g_k|^2]`` of the path;
    ``tx_direction`` / ``rx_direction`` are the angle of departure and the
    angle of arrival.
    """

    power: float
    tx_direction: Direction
    rx_direction: Direction

    def __post_init__(self) -> None:
        if self.power < 0:
            raise ValidationError(f"subpath power must be >= 0, got {self.power}")


def subpaths_from_columns(powers: np.ndarray, angles: np.ndarray) -> List[Subpath]:
    """:class:`Subpath` objects for powers ``(K,)`` and angles ``(K, 4)``."""
    return [
        Subpath(
            power=power,
            tx_direction=Direction(tx_az, tx_el),
            rx_direction=Direction(rx_az, rx_el),
        )
        for power, (tx_az, tx_el, rx_az, rx_el) in zip(powers.tolist(), angles.tolist())
    ]


#: Largest ``|angle|`` per angle column: azimuths in ``[-pi, pi]``,
#: elevations in ``[-pi/2, pi/2]`` (the :class:`Direction` ranges).
_ANGLE_LIMITS = np.array([np.pi, np.pi / 2, np.pi, np.pi / 2])


def _check_columns(powers: np.ndarray, angles: np.ndarray) -> None:
    """Vectorised :class:`Subpath` / :class:`Direction` validation.

    Raises the :class:`ValidationError` that building the first invalid
    subpath's directions (then the subpath itself) would raise; a NaN
    angle is out of range, a NaN power is not negative.
    """
    if powers.ndim != 1 or angles.shape != (powers.shape[0], 4):
        raise ValidationError(
            f"need powers (K,) and angles (K, 4), got {powers.shape} and {angles.shape}"
        )
    in_range = np.abs(angles) <= _ANGLE_LIMITS
    if not in_range.all():
        row, column = np.argwhere(~in_range)[0]
        value = float(angles[row, column])
        if column % 2 == 0:
            raise ValidationError(f"azimuth must lie in [-pi, pi], got {value!r}")
        raise ValidationError(f"elevation must lie in [-pi/2, pi/2], got {value!r}")
    negative = powers < 0
    if negative.any():
        power = float(powers[negative][0])
        raise ValidationError(f"subpath power must be >= 0, got {power}")


def _steering(
    array: ArrayGeometry,
    azimuths: np.ndarray,
    elevations: np.ndarray,
    given: Optional[np.ndarray],
    side: str,
) -> np.ndarray:
    """The injected steering matrix after a shape check, else a fresh one."""
    expected = (array.num_elements, len(azimuths))
    if given is None:
        phases = angle_phases(array, azimuths, elevations)
        return np.exp(1j * phases) / np.sqrt(array.num_elements)
    if given.shape != expected:
        raise ValidationError(f"{side}_steering must be {expected}, got {given.shape}")
    return given


class ClusteredChannel:
    """A fixed-geometry, block-fading clustered channel.

    The geometry is held as columns: subpath powers ``(K,)`` and angles
    ``(K, 4)`` (TX azimuth, TX elevation, RX azimuth, RX elevation, in
    radians). :attr:`subpaths` builds the equivalent :class:`Subpath`
    tuple only when read.

    Parameters
    ----------
    tx_array, rx_array:
        The antenna arrays at each end.
    subpaths:
        The discrete subpaths. Their powers need not be normalized;
        ``total_power`` rescales them so that ``sum_k P_k == total_power``.
        :meth:`from_columns` takes the same geometry as arrays.
    snr:
        The pre-beamforming SNR scale ``gamma = Es / N0`` (linear) that a
        unit-power path would produce; it multiplies every mean-SNR value
        and sets the measurement-noise level (Eq. 14–15).
    total_power:
        Target total path power (default 1.0). Pass ``None`` to keep the
        subpath powers as given, e.g. when they already embed a
        path-loss calculation.
    tx_steering, rx_steering:
        Optional precomputed steering matrices (``(M, K)`` / ``(N, K)``,
        subpath columns in order). The batched channel builder of
        :mod:`repro.channel.batch` generates steering for a whole batch
        of realizations in one concatenated GEMM and injects the slices
        here; values must equal what :func:`steering_matrix` would
        produce for the same subpath directions.
    """

    def __init__(
        self,
        tx_array: ArrayGeometry,
        rx_array: ArrayGeometry,
        subpaths: Sequence[Subpath],
        snr: float = 100.0,
        total_power: Optional[float] = 1.0,
        *,
        tx_steering: Optional[np.ndarray] = None,
        rx_steering: Optional[np.ndarray] = None,
    ) -> None:
        powers = np.array([path.power for path in subpaths], dtype=float)
        angles = np.array(
            [
                (
                    path.tx_direction.azimuth,
                    path.tx_direction.elevation,
                    path.rx_direction.azimuth,
                    path.rx_direction.elevation,
                )
                for path in subpaths
            ],
            dtype=float,
        ).reshape(len(subpaths), 4)
        self._setup(
            tx_array, rx_array, powers, angles, snr, total_power, tx_steering, rx_steering
        )

    @classmethod
    def from_columns(
        cls,
        tx_array: ArrayGeometry,
        rx_array: ArrayGeometry,
        powers: np.ndarray,
        angles: np.ndarray,
        snr: float = 100.0,
        total_power: Optional[float] = 1.0,
        *,
        tx_steering: Optional[np.ndarray] = None,
        rx_steering: Optional[np.ndarray] = None,
    ) -> "ClusteredChannel":
        """A channel from subpath powers ``(K,)`` and angles ``(K, 4)``.

        Validated like the :class:`Subpath` form (same errors) and
        equal to it in every array; no per-subpath object is built.
        """
        channel = cls.__new__(cls)
        channel._setup(
            tx_array,
            rx_array,
            np.asarray(powers, dtype=float),
            np.asarray(angles, dtype=float),
            snr,
            total_power,
            tx_steering,
            rx_steering,
        )
        return channel

    def _setup(
        self,
        tx_array: ArrayGeometry,
        rx_array: ArrayGeometry,
        powers: np.ndarray,
        angles: np.ndarray,
        snr: float,
        total_power: Optional[float],
        tx_steering: Optional[np.ndarray],
        rx_steering: Optional[np.ndarray],
    ) -> None:
        if len(powers) == 0:
            raise ValidationError("a channel needs at least one subpath")
        _check_columns(powers, angles)
        self._tx_array = tx_array
        self._rx_array = rx_array
        self._snr = check_positive(snr, "snr")

        if total_power is not None:
            total_power = check_positive(total_power, "total_power")
            current = float(powers.sum())
            if current <= 0:
                raise ValidationError("subpath powers sum to zero; cannot normalize")
            powers = powers * (total_power / current)
        self._powers = powers
        self._angles = angles
        self._subpaths: Optional[Tuple[Subpath, ...]] = None
        self._tx_steering = _steering(tx_array, angles[:, 0], angles[:, 1], tx_steering, "tx")
        self._rx_steering = _steering(rx_array, angles[:, 2], angles[:, 3], rx_steering, "rx")
        self._sqrt_powers = np.sqrt(self._powers)
        # Codebook-coupling tables, keyed by codebook identity. Codebooks
        # are immutable and long-lived (they belong to the scenario), so
        # identity keying is sound; the stored references keep the ids
        # from being recycled while an entry lives.
        self._couplings: "OrderedDict[Tuple[int, int], Tuple[Codebook, Codebook, CodebookCoupling]]" = (
            OrderedDict()
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def tx_array(self) -> ArrayGeometry:
        """The transmit array."""
        return self._tx_array

    @property
    def rx_array(self) -> ArrayGeometry:
        """The receive array."""
        return self._rx_array

    @property
    def subpaths(self) -> Tuple[Subpath, ...]:
        """The (power-normalized) subpaths, built on first read."""
        if self._subpaths is None:
            self._subpaths = tuple(subpaths_from_columns(self._powers, self._angles))
        return self._subpaths

    @property
    def num_subpaths(self) -> int:
        """Number of discrete subpaths (the rank of the covariance)."""
        return len(self._powers)

    @property
    def powers(self) -> np.ndarray:
        """Subpath mean powers ``P_k``, shape ``(K,)``."""
        return self._powers.copy()

    @property
    def sqrt_powers(self) -> np.ndarray:
        """``sqrt(P_k)`` per subpath, shape ``(K,)``.

        The internal array backing :meth:`sample_coefficients`; exposed
        for the measurement engine's fused multi-pair fading draw. Treat
        as read-only.
        """
        return self._sqrt_powers

    @property
    def snr(self) -> float:
        """Pre-beamforming SNR scale ``gamma = Es / N0`` (linear)."""
        return self._snr

    @property
    def tx_steering(self) -> np.ndarray:
        """TX steering vectors of the subpaths as columns, ``(M, K)``."""
        return self._tx_steering

    @property
    def rx_steering(self) -> np.ndarray:
        """RX steering vectors of the subpaths as columns, ``(N, K)``."""
        return self._rx_steering

    # ------------------------------------------------------------------
    # Sampling (fast fading)
    # ------------------------------------------------------------------

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw an instantaneous channel matrix ``H`` (Eq. 5), ``(N, M)``."""
        gains = complex_normal(rng, self.num_subpaths) * np.sqrt(self._powers)
        return (self._rx_steering * gains) @ self._tx_steering.conj().T

    def beamformed_coefficients(
        self,
        tx_beam: np.ndarray,
        rx_beam: np.ndarray,
    ) -> np.ndarray:
        """Per-subpath couplings ``c_k = (v^H a_rx,k)(a_tx,k^H u)``.

        The beamformed channel is ``v^H H u = sum_k g_k c_k`` with
        ``g_k ~ CN(0, P_k)``, so fading realizations of a fixed beam pair
        can be drawn from a ``K``-dimensional Gaussian without forming
        the ``N x M`` matrix — the measurement-engine hot path.
        """
        rx_proj = rx_beam.conj() @ self._rx_steering
        tx_proj = self._tx_steering.conj().T @ tx_beam
        return rx_proj * tx_proj

    def sample_beamformed(
        self,
        tx_beam: np.ndarray,
        rx_beam: np.ndarray,
        rng: np.random.Generator,
        count: int = 1,
    ) -> np.ndarray:
        """``count`` i.i.d. fading realizations of ``v^H H u`` (no noise)."""
        coefficients = self.beamformed_coefficients(tx_beam, rx_beam)
        return self.sample_coefficients(coefficients, rng, count)

    def sample_coefficients(
        self,
        coefficients: np.ndarray,
        rng: np.random.Generator,
        count: int = 1,
    ) -> np.ndarray:
        """Fading realizations for precomputed couplings ``c_k``.

        Identical RNG consumption and arithmetic as
        :meth:`sample_beamformed`; the split lets the measurement engine
        reuse a :class:`CodebookCoupling` table instead of re-projecting
        the beams on every dwell.
        """
        gains = complex_normal(rng, (count, self.num_subpaths)) * self._sqrt_powers
        return gains @ coefficients

    # ------------------------------------------------------------------
    # Second-order statistics (exact, closed form)
    # ------------------------------------------------------------------

    def rx_covariance(self, tx_beam: np.ndarray) -> np.ndarray:
        """TX-conditioned RX spatial covariance ``Q_u``, shape ``(N, N)``.

        This is the ``Q`` the receiver estimates in a TX-slot (Eq. 6 with
        the slot's fixed TX beam folded in); its rank is bounded by the
        number of subpaths.
        """
        tx_beam = check_unit_norm(np.asarray(tx_beam, dtype=complex), name="tx_beam")
        tx_gains = np.abs(self._tx_steering.conj().T @ tx_beam) ** 2
        weighted = self._rx_steering * (self._powers * tx_gains)
        return hermitian(weighted @ self._rx_steering.conj().T)

    def full_rx_covariance(self) -> np.ndarray:
        """Unconditioned RX covariance ``E[H H^H]`` (Eq. 6), ``(N, N)``."""
        weighted = self._rx_steering * self._powers
        return hermitian(weighted @ self._rx_steering.conj().T)

    def mean_snr(self, tx_beam: np.ndarray, rx_beam: np.ndarray) -> float:
        """Mean post-beamforming SNR ``R(u, v)`` of a pair (linear)."""
        tx_beam = check_unit_norm(np.asarray(tx_beam, dtype=complex), name="tx_beam")
        rx_beam = check_unit_norm(np.asarray(rx_beam, dtype=complex), name="rx_beam")
        tx_gains = np.abs(self._tx_steering.conj().T @ tx_beam) ** 2
        rx_gains = np.abs(self._rx_steering.conj().T @ rx_beam) ** 2
        return float(self._snr * np.sum(self._powers * tx_gains * rx_gains))

    def mean_snr_matrix(
        self,
        tx_codebook: Codebook,
        rx_codebook: Codebook,
    ) -> np.ndarray:
        """Mean SNR of every beam pair; shape ``(tx_beams, rx_beams)``.

        Exact evaluation of ``R(u_i, v_j)`` over the full product codebook
        — what exhaustive search (Eq. 2) would discover with noiseless
        measurements. Used by the harness to compute the optimum ``R_opt``
        of the SNR-loss metric (Eq. 31).
        """
        coupling = self.codebook_couplings(tx_codebook, rx_codebook)
        tx_gains = np.abs(coupling.tx_proj) ** 2
        rx_gains = (np.abs(coupling.rx_proj) ** 2).T
        return self._snr * (tx_gains.T @ (self._powers[:, None] * rx_gains))

    def codebook_couplings(
        self,
        tx_codebook: Codebook,
        rx_codebook: Codebook,
    ) -> CodebookCoupling:
        """Precomputed per-subpath couplings of every codebook beam.

        Memoized per codebook pair (codebooks are immutable), so the two
        stacked GEMMs run once per channel realization no matter how many
        measurements, schemes, or SNR-matrix evaluations consume them.
        """
        if tx_codebook.array.num_elements != self._tx_array.num_elements:
            raise ValidationError("tx codebook does not match the TX array")
        if rx_codebook.array.num_elements != self._rx_array.num_elements:
            raise ValidationError("rx codebook does not match the RX array")
        key = (id(tx_codebook), id(rx_codebook))
        entry = self._couplings.get(key)
        if (
            entry is not None
            and entry[0] is tx_codebook
            and entry[1] is rx_codebook
        ):
            self._couplings.move_to_end(key)
            return entry[2]
        coupling = CodebookCoupling(
            tx_proj=self._tx_steering.conj().T @ tx_codebook.vectors,
            rx_proj=rx_codebook.vectors.conj().T @ self._rx_steering,
        )
        self._store_coupling(key, tx_codebook, rx_codebook, coupling)
        return coupling

    def prime_codebook_coupling(
        self,
        tx_codebook: Codebook,
        rx_codebook: Codebook,
        coupling: CodebookCoupling,
    ) -> None:
        """Seed the coupling memo with an externally computed table.

        The batched channel builder computes coupling tables for a whole
        batch of channels via stacked GEMMs; priming makes every later
        :meth:`codebook_couplings` / :meth:`mean_snr_matrix` /
        ``measure_pair`` call a memo hit. The caller guarantees the table
        equals what :meth:`codebook_couplings` would compute.
        """
        if tx_codebook.array.num_elements != self._tx_array.num_elements:
            raise ValidationError("tx codebook does not match the TX array")
        if rx_codebook.array.num_elements != self._rx_array.num_elements:
            raise ValidationError("rx codebook does not match the RX array")
        key = (id(tx_codebook), id(rx_codebook))
        self._store_coupling(key, tx_codebook, rx_codebook, coupling)

    def _store_coupling(
        self,
        key: Tuple[int, int],
        tx_codebook: Codebook,
        rx_codebook: Codebook,
        coupling: CodebookCoupling,
    ) -> None:
        self._couplings[key] = (tx_codebook, rx_codebook, coupling)
        while len(self._couplings) > 4:
            self._couplings.popitem(last=False)

    def optimal_pair(
        self,
        tx_codebook: Codebook,
        rx_codebook: Codebook,
    ) -> Tuple[int, int, float]:
        """Best codebook pair and its mean SNR: ``(u_opt, v_opt, R_opt)``."""
        snr = self.mean_snr_matrix(tx_codebook, rx_codebook)
        flat = int(np.argmax(snr))
        tx_index, rx_index = np.unravel_index(flat, snr.shape)
        return int(tx_index), int(rx_index), float(snr[tx_index, rx_index])

    def __repr__(self) -> str:
        return (
            f"ClusteredChannel(subpaths={self.num_subpaths},"
            f" tx={self._tx_array.name}, rx={self._rx_array.name},"
            f" snr={self._snr:g})"
        )

"""Beam codebooks.

A codebook is a finite set of candidate beamforming vectors — the sets
``U`` and ``V`` of the paper (Sec. III-A). Beam-alignment schemes search
over codebooks, never over the continuum, so the codebook carries:

* the beam vectors (unit-norm columns of a matrix), each tied to a
  steering :class:`~repro.utils.geometry.Direction`;
* the logical *beam grid* (``(n_elevation, n_azimuth)`` for planar arrays)
  that defines spatial adjacency — required by the paper's ``Scan``
  baseline, which may only hop between spatially adjacent beams;
* vectorized beam-quality evaluation ``v^H Q v`` over all beams at once
  (Eq. 26 and the beam-selection rule of Sec. IV-B2).

The default grid is uniform in sine space with one beam per array
dimension, which is the classical DFT-codebook angle set.
"""

from __future__ import annotations

import hashlib
import weakref
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.arrays.geometry import ArrayGeometry
from repro.arrays.steering import steering_matrix
from repro.arrays.ula import UniformLinearArray
from repro.arrays.upa import UniformPlanarArray
from repro.exceptions import ValidationError
from repro.utils.geometry import Direction, uniform_sine_grid
from repro.utils.linalg import quadratic_forms
from repro.utils.validation import check_index

__all__ = ["Codebook", "CodebookGainCache"]


class CodebookGainCache:
    """Memoized all-beam quadratic forms ``diag(V^H Q V)`` for one codebook.

    The beam matrix ``V`` is stacked once at construction; every gain
    evaluation is a single GEMM + einsum over all beams, and repeated
    evaluations against the *same* covariance (the common case: each
    slot's estimate is consulted for probe ranking, the decided beam, and
    again as next slot's prior) are served from a small LRU without
    touching BLAS.

    Keying is exact, never heuristic:

    * read-only arrays (covariance estimates produced by
      :class:`~repro.estimation.ml_covariance.MlCovarianceEstimator` are
      frozen) are keyed by object identity, validated through a weakref so
      a recycled ``id`` can never alias a dead array;
    * writeable arrays are keyed by a content digest of their bytes, so a
      caller mutating a covariance in place gets a fresh evaluation —
      never a stale one.

    A hit returns the *identical* array object a miss would have produced
    (computed by the same :func:`~repro.utils.linalg.quadratic_forms`
    call), so hits and misses are bit-identical.
    """

    def __init__(self, vectors: np.ndarray, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValidationError(f"cache capacity must be >= 1, got {capacity}")
        self._vectors = vectors
        self._capacity = int(capacity)
        self._entries: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self._guards: Dict[tuple, "weakref.ref[np.ndarray]"] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- keying --------------------------------------------------------

    @staticmethod
    def _key(covariance: np.ndarray) -> tuple:
        if not covariance.flags.writeable:
            return ("id", id(covariance))
        data = np.ascontiguousarray(covariance)
        digest = hashlib.blake2b(data.tobytes(), digest_size=16).digest()
        return ("content", covariance.shape, covariance.dtype.str, digest)

    def _valid_hit(self, key: tuple, covariance: np.ndarray) -> bool:
        if key[0] != "id":
            return True
        guard = self._guards.get(key)
        return guard is not None and guard() is covariance

    # -- evaluation ----------------------------------------------------

    def gains(self, covariance: np.ndarray) -> np.ndarray:
        """``v_k^H Q v_k`` for every beam ``k``, memoized; read-only."""
        covariance = np.asarray(covariance)
        key = self._key(covariance)
        cached = self._entries.get(key)
        if cached is not None and self._valid_hit(key, covariance):
            self.hits += 1
            self._entries.move_to_end(key)
            return cached
        self.misses += 1
        gains = quadratic_forms(covariance, self._vectors)
        gains.setflags(write=False)
        if key[0] == "id":
            try:
                self._guards[key] = weakref.ref(covariance)
            except TypeError:  # exotic array subclass without weakref support
                key = self._key(np.array(covariance))  # content fallback
        self._entries[key] = gains
        self._entries.move_to_end(key)
        while len(self._entries) > self._capacity:
            evicted, _ = self._entries.popitem(last=False)
            self._guards.pop(evicted, None)
            self.evictions += 1
        return gains

    # -- maintenance ---------------------------------------------------

    def clear(self) -> None:
        """Drop every cached evaluation (counters are preserved)."""
        self._entries.clear()
        self._guards.clear()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def capacity(self) -> int:
        """Maximum number of memoized covariances."""
        return self._capacity

    def __repr__(self) -> str:
        return (
            f"CodebookGainCache(entries={len(self._entries)},"
            f" hits={self.hits}, misses={self.misses})"
        )


class Codebook:
    """An indexed set of unit-norm beamforming vectors on a beam grid."""

    def __init__(
        self,
        array: ArrayGeometry,
        directions: Sequence[Direction],
        grid_shape: Tuple[int, int],
        name: str = "codebook",
        vectors: Optional[np.ndarray] = None,
    ) -> None:
        rows, cols = int(grid_shape[0]), int(grid_shape[1])
        if rows * cols != len(directions):
            raise ValidationError(
                f"grid {rows}x{cols} does not match {len(directions)} directions"
            )
        if len(directions) == 0:
            raise ValidationError("a codebook needs at least one beam")
        self._array = array
        self._directions: Tuple[Direction, ...] = tuple(directions)
        self._grid_shape = (rows, cols)
        self._name = str(name)
        if vectors is None:
            vectors = steering_matrix(array, self._directions)
        vectors = np.asarray(vectors, dtype=complex)
        if vectors.shape != (array.num_elements, len(directions)):
            raise ValidationError(
                f"vectors must have shape ({array.num_elements}, {len(directions)}),"
                f" got {vectors.shape}"
            )
        norms = np.linalg.norm(vectors, axis=0)
        if not np.allclose(norms, 1.0, atol=1e-8):
            raise ValidationError("all codebook vectors must be unit-norm")
        self._vectors = vectors
        self._vectors.setflags(write=False)
        self._gain_cache: Optional[CodebookGainCache] = None
        self._snake_path: Tuple[int, ...] = tuple(
            row * cols + col
            for row in range(rows)
            for col in (range(cols) if row % 2 == 0 else range(cols - 1, -1, -1))
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def for_array(cls, array: ArrayGeometry, name: Optional[str] = None) -> "Codebook":
        """Default codebook: one beam per array dimension, sine-uniform.

        A ``rows x cols`` planar array gets a ``rows x cols`` beam grid
        (azimuth along columns, elevation along rows); a ULA of ``n``
        elements gets ``n`` azimuth beams. This matches the paper's
        example counts (e.g. 64 directions for a 64-element array).
        """
        if isinstance(array, UniformPlanarArray):
            return cls.grid(array, n_azimuth=array.cols, n_elevation=array.rows, name=name)
        if isinstance(array, UniformLinearArray):
            return cls.grid(array, n_azimuth=array.num_elements, n_elevation=1, name=name)
        raise ValidationError(f"no default codebook rule for {type(array).__name__}")

    @classmethod
    def grid(
        cls,
        array: ArrayGeometry,
        n_azimuth: int,
        n_elevation: int = 1,
        name: Optional[str] = None,
    ) -> "Codebook":
        """Codebook on an ``n_elevation x n_azimuth`` sine-uniform grid."""
        if n_azimuth < 1 or n_elevation < 1:
            raise ValidationError(
                f"beam grid must be at least 1x1, got {n_elevation}x{n_azimuth}"
            )
        azimuths = uniform_sine_grid(n_azimuth)
        elevations = uniform_sine_grid(n_elevation) if n_elevation > 1 else np.array([0.0])
        directions = [
            Direction(azimuth=float(az), elevation=float(el))
            for el in elevations
            for az in azimuths
        ]
        label = name or f"grid-{n_elevation}x{n_azimuth}@{array.name}"
        return cls(array, directions, (n_elevation, n_azimuth), name=label)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def array(self) -> ArrayGeometry:
        """The antenna array these beams steer."""
        return self._array

    @property
    def name(self) -> str:
        """Human-readable codebook label."""
        return self._name

    @property
    def num_beams(self) -> int:
        """Number of beams (``card(U)`` / ``card(V)`` of Eq. 1)."""
        return len(self._directions)

    @property
    def grid_shape(self) -> Tuple[int, int]:
        """Beam-grid shape ``(n_elevation, n_azimuth)``."""
        return self._grid_shape

    @property
    def vectors(self) -> np.ndarray:
        """All beam vectors as columns, shape ``(num_elements, num_beams)``."""
        return self._vectors

    @property
    def directions(self) -> Tuple[Direction, ...]:
        """Steering directions, indexed like the beams."""
        return self._directions

    def beam(self, index: int) -> np.ndarray:
        """The unit-norm beamforming vector of beam ``index``."""
        index = check_index(index, self.num_beams, "beam index")
        return self._vectors[:, index]

    def direction(self, index: int) -> Direction:
        """The steering direction of beam ``index``."""
        index = check_index(index, self.num_beams, "beam index")
        return self._directions[index]

    def __len__(self) -> int:
        return self.num_beams

    def __iter__(self) -> Iterator[np.ndarray]:
        for index in range(self.num_beams):
            yield self._vectors[:, index]

    def __repr__(self) -> str:
        rows, cols = self._grid_shape
        return f"Codebook(name={self._name!r}, beams={rows}x{cols})"

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_gain_cache"] = None  # weakref guards are not picklable
        return state

    # ------------------------------------------------------------------
    # Beam-grid topology
    # ------------------------------------------------------------------

    def grid_coords(self, index: int) -> Tuple[int, int]:
        """Map a flat beam index to its ``(row, col)`` grid coordinate."""
        index = check_index(index, self.num_beams, "beam index")
        _, cols = self._grid_shape
        return divmod(index, cols)

    def beam_index(self, row: int, col: int) -> int:
        """Map a ``(row, col)`` grid coordinate to the flat beam index."""
        rows, cols = self._grid_shape
        if not (0 <= row < rows and 0 <= col < cols):
            raise ValidationError(f"beam ({row}, {col}) outside {rows}x{cols} grid")
        return row * cols + col

    def neighbors(self, index: int) -> List[int]:
        """Spatially adjacent beams (4-neighborhood on the beam grid).

        This adjacency is what the paper's ``Scan`` scheme means by "the
        beam direction that is spatially adjacent to the previous beam
        direction" (Sec. V).
        """
        row, col = self.grid_coords(index)
        rows, cols = self._grid_shape
        result = []
        for d_row, d_col in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            n_row, n_col = row + d_row, col + d_col
            if 0 <= n_row < rows and 0 <= n_col < cols:
                result.append(self.beam_index(n_row, n_col))
        return result

    def snake_order(self, start: int = 0) -> List[int]:
        """All beams in a boustrophedon (snake) order starting at ``start``.

        Consecutive entries are spatial neighbors except for at most one
        wrap-around jump when ``start`` is not a grid corner; the order is
        the natural single sweep of a planar sector. The path is built once
        per codebook and rotated to ``start`` per call.
        """
        start = check_index(start, self.num_beams, "start")
        path = self._snake_path
        offset = path.index(start)
        return list(path[offset:] + path[:offset])

    # ------------------------------------------------------------------
    # Beam-quality evaluation
    # ------------------------------------------------------------------

    @property
    def gain_cache(self) -> CodebookGainCache:
        """The per-codebook memoized gain evaluator (created lazily)."""
        if self._gain_cache is None:
            self._gain_cache = CodebookGainCache(self._vectors)
        return self._gain_cache

    def gains(self, covariance: np.ndarray) -> np.ndarray:
        """``v_k^H Q v_k`` for every beam ``k`` (vectorized Eq. 26 metric).

        A single stacked GEMM over the beam matrix, memoized per
        covariance by :attr:`gain_cache`. The returned array is read-only;
        copy before mutating.
        """
        return self.gain_cache.gains(covariance)

    def best_beam(
        self,
        covariance: np.ndarray,
        exclude: Optional[Set[int]] = None,
    ) -> int:
        """Beam maximizing ``v^H Q v``, optionally skipping ``exclude``.

        Implements Eq. (26); the ``exclude`` set enforces the paper's rule
        that already-measured beam pairs are never measured again.
        """
        gains = self.gains(covariance)
        if exclude:
            if len(exclude) >= self.num_beams:
                raise ValidationError("all beams are excluded")
            gains = gains.copy()
            gains[list(exclude)] = -np.inf
        return int(np.argmax(gains))

    def top_beams(
        self,
        covariance: np.ndarray,
        count: int,
        exclude: Optional[Set[int]] = None,
    ) -> List[int]:
        """The ``count`` beams with the largest ``v^H Q v``, best first.

        Implements step 3 of the RX beam-selection procedure of
        Sec. IV-B2 (choose the ``J-1`` directions with the largest
        estimated quality).
        """
        if count < 0:
            raise ValidationError(f"count must be >= 0, got {count}")
        gains = self.gains(covariance)
        if exclude:
            gains = gains.copy()
            gains[list(exclude)] = -np.inf
        available = int(np.sum(np.isfinite(gains)))
        if count > available:
            raise ValidationError(
                f"requested {count} beams but only {available} are not excluded"
            )
        order = np.argsort(gains)[::-1]
        return [int(index) for index in order[:count]]

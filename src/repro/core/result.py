"""Alignment outcomes and traces."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.measurement.measurer import Measurement
from repro.types import BeamPair

__all__ = ["SlotRecord", "AlignmentResult", "ProbeTrace"]


@dataclass(frozen=True)
class SlotRecord:
    """What happened in one TX-slot of an adaptive scheme.

    ``probe_rx_beams`` are the first ``J-1`` measurement directions,
    ``decided_rx_beam`` the estimation-driven J-th direction (Eq. 26), and
    ``estimator_converged`` whether the covariance solve hit its
    tolerance (a diagnostic, not a correctness gate).
    """

    slot: int
    tx_beam: int
    probe_rx_beams: Tuple[int, ...]
    decided_rx_beam: Optional[int]
    estimator_converged: Optional[bool] = None


class ProbeTrace(Sequence[Measurement]):
    """Read-only view of a probe log: :class:`Measurement` records built on read.

    The columns hold, per record in measurement order, the flat pair
    index ``tx * card(V) + rx`` (``-1`` for an off-codebook probe), the
    power statistic, the last sample ``z`` and the slot. Each read builds
    fresh records through the public constructor; the view compares equal
    to the list of records it stands for.
    """

    __slots__ = ("_flats", "_powers", "_z", "_slots", "_num_rx")

    def __init__(
        self,
        flats: np.ndarray,
        powers: np.ndarray,
        z: np.ndarray,
        slots: List[Optional[int]],
        num_rx: int,
    ) -> None:
        self._flats = flats
        self._powers = powers
        self._z = z
        self._slots = slots
        self._num_rx = num_rx

    def __len__(self) -> int:
        return len(self._slots)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._records(index)
        record = range(len(self))[index]
        return self._records(slice(record, record + 1))[0]

    def __iter__(self) -> Iterator[Measurement]:
        return iter(self._records(slice(None)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (ProbeTrace, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"ProbeTrace({list(self)!r})"

    def _records(self, selection: slice) -> List[Measurement]:
        num_rx = self._num_rx
        return [
            Measurement(
                power, z, BeamPair(*divmod(flat, num_rx)) if flat >= 0 else None, slot
            )
            for flat, power, z, slot in zip(
                self._flats[selection].tolist(),
                self._powers[selection].tolist(),
                self._z[selection].tolist(),
                self._slots[selection],
            )
        ]


@dataclass
class AlignmentResult:
    """Outcome of one beam-alignment run.

    ``selected`` is the pair the scheme reports (Eq. 30: the best
    *measured* pair by measured power); evaluation against the true
    channel (SNR loss, Eq. 31) is the harness's job, since the algorithm
    must not peek at ground truth. A context-built result carries its
    ``trace`` as a :class:`ProbeTrace`, so the records are only built
    when the trace is read.
    """

    algorithm: str
    selected: BeamPair
    selected_power: float
    measurements_used: int
    total_pairs: int
    trace: Sequence[Measurement] = field(default_factory=list)
    slots: List[SlotRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.measurements_used < 0:
            raise ValidationError("measurements_used must be >= 0")
        if self.total_pairs < 1:
            raise ValidationError("total_pairs must be >= 1")

    @property
    def search_rate(self) -> float:
        """Consumed search rate ``L / T`` (Eq. 32)."""
        return self.measurements_used / self.total_pairs

    def measured_pairs(self) -> List[BeamPair]:
        """Every distinct codebook pair that was measured, in order."""
        return list(dict.fromkeys(m.pair for m in self.trace if m.pair is not None))

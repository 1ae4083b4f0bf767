"""Seeded Poisson arrival process for the cell workload.

UEs arrive by a homogeneous Poisson process: inter-arrival gaps are
i.i.d. exponential with mean ``1 / arrival_rate_hz``. The whole arrival
schedule is drawn **up front** from one dedicated, namespaced RNG stream
— a single vectorized draw from a generator derived only from the
config — so it is trivially identical across UE block sizes and
launched-worker execution (no execution engine ever touches the arrival
stream).

Stream derivation: the cell's global draws live under a namespaced root
``SeedSequence((base_seed, CELL_NAMESPACE))`` whose labeled children
(:func:`repro.utils.rng.labeled_spawn`) name each global stream. The
namespace word keeps the root's spawn pool disjoint from every per-UE
trial pool ``(base_seed, ue_id, child)`` — UE ids are validated to stay
below it — so adding cell-global streams never perturbs any UE's draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.utils.rng import labeled_spawn

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.cell.config import CellConfig

__all__ = [
    "CELL_NAMESPACE",
    "ARRIVAL_STREAM",
    "Arrival",
    "ArrivalSchedule",
    "cell_root",
    "poisson_arrivals",
    "arrival_schedule",
]

#: Namespace word separating cell-global streams from per-UE trial
#: streams: UE pools are ``(base_seed, ue_id, ...)`` with
#: ``ue_id < CELL_NAMESPACE`` (enforced by :class:`CellConfig`).
CELL_NAMESPACE = 2**31 - 1

#: Label of the arrival-process stream under the cell root.
ARRIVAL_STREAM = "cell.arrivals"


@dataclass(frozen=True)
class Arrival:
    """One UE's alignment request."""

    ue_id: int
    time_us: float


@dataclass(frozen=True)
class ArrivalSchedule:
    """The full arrival schedule of one cell run."""

    arrivals: Tuple[Arrival, ...]
    #: UEs the arrival window admitted (== ``len(arrivals)``).
    admitted: int
    #: UEs the ``duration_s`` cap turned away.
    rejected: int

    @property
    def times_us(self) -> np.ndarray:
        return np.array([arrival.time_us for arrival in self.arrivals])

    @property
    def span_us(self) -> float:
        """Time of the last admitted arrival (0.0 for an empty schedule)."""
        return self.arrivals[-1].time_us if self.arrivals else 0.0


def cell_root(base_seed: int) -> np.random.Generator:
    """The namespaced root generator for cell-global draws."""
    return np.random.default_rng(np.random.SeedSequence((base_seed, CELL_NAMESPACE)))


def poisson_arrivals(
    num_users: int,
    arrival_rate_hz: float,
    rng: np.random.Generator,
    duration_s: float = None,
) -> ArrivalSchedule:
    """Draw a Poisson arrival schedule for ``num_users`` UEs.

    One vectorized exponential draw of all gaps, then a cumulative sum —
    the stream cost is independent of how the schedule is later
    executed. ``duration_s``, when given, drops arrivals past the
    window (those UEs never enter the cell).
    """
    gaps_s = rng.exponential(scale=1.0 / arrival_rate_hz, size=num_users)
    times_s = np.cumsum(gaps_s)
    if duration_s is not None:
        admitted_mask = times_s <= duration_s
        times_s = times_s[admitted_mask]
    arrivals = tuple(
        Arrival(ue_id=index, time_us=float(time_s * 1e6))
        for index, time_s in enumerate(times_s)
    )
    return ArrivalSchedule(
        arrivals=arrivals,
        admitted=len(arrivals),
        rejected=num_users - len(arrivals),
    )


def arrival_schedule(config: "CellConfig") -> ArrivalSchedule:
    """The deterministic arrival schedule a config implies."""
    streams = labeled_spawn(cell_root(config.base_seed), [ARRIVAL_STREAM])
    return poisson_arrivals(
        config.num_users,
        config.arrival_rate_hz,
        streams[ARRIVAL_STREAM],
        duration_s=config.duration_s,
    )

"""Per-UE alignment execution under cell contention.

Every scheduled UE runs one alignment against the shared BS codebook:
its own channel realization, its own measurement noise, and an
impulsive-interference probability driven by how many other UEs share
its training frames (``p = min(1, coupling * peak_concurrency)`` through
:class:`~repro.measurement.measurer.MeasurementEngine`'s interference
path).

Determinism contract — UE ``k`` is trial ``k``: its streams come from
``labeled_spawn(trial_generator(base_seed, k), UE_STREAM_LABELS)``, so a
UE's channel, noise, and algorithm draws depend only on ``(base_seed,
ue_id)``, never on which execution mode or shard ran it. The batched
path stacks channel sampling and ground-truth SNR through
:mod:`repro.channel.batch` exactly like the trial engine in
:mod:`repro.sim.batch`; per-UE results are bit-identical to the serial
path for any block size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.base import ClusteredChannel
from repro.channel.batch import mean_snr_matrices
from repro.core.base import AlignmentContext
from repro.exceptions import ConfigurationError
from repro.cell.config import CellConfig
from repro.cell.scheduler import UESchedule
from repro.measurement.measurer import MeasurementEngine
from repro.obs import get_logger
from repro.sim.metrics import evaluate_pair
from repro.sim.scenario import Scenario
from repro.utils.rng import labeled_spawn, trial_generator

__all__ = [
    "UE_STREAM_LABELS",
    "UEOutcome",
    "ue_streams",
    "interference_probability",
    "check_batch_users",
    "execute_ues",
]

logger = get_logger("cell.engine")

#: Labeled child streams of one UE's trial generator.
UE_STREAM_LABELS = ("channel", "measurement", "algorithm")


@dataclass(frozen=True)
class UEOutcome:
    """The alignment outcome of one UE (timing lives in the schedule)."""

    ue_id: int
    loss_db: float
    mean_snr: float
    optimal_snr: float
    selected_tx: int
    selected_rx: int
    measurements_used: int
    interference_probability: float
    interference_hits: int


def ue_streams(base_seed: int, ue_id: int) -> Dict[str, np.random.Generator]:
    """UE ``k``'s labeled streams (trial ``k`` of the seeding contract)."""
    return labeled_spawn(trial_generator(base_seed, ue_id), UE_STREAM_LABELS)


def interference_probability(config: CellConfig, entry: UESchedule) -> float:
    """Impulse-hit probability a UE's frame sharing implies."""
    return min(1.0, config.interference_coupling * entry.peak_concurrency)


def _align_ue(
    scenario: Scenario,
    config: CellConfig,
    entry: UESchedule,
    channel: ClusteredChannel,
    snr_matrix: np.ndarray,
    streams: Dict[str, np.random.Generator],
    factory,
) -> UEOutcome:
    """The per-UE scheme loop (shared by serial and batched paths)."""
    shared = scenario.context()
    probability = interference_probability(config, entry)
    engine = MeasurementEngine(
        channel,
        streams["measurement"],
        fading_blocks=scenario.config.fading_blocks,
        interference_probability=probability,
        interference_power=config.interference_power,
    )
    context = AlignmentContext(
        shared.tx_codebook,
        shared.rx_codebook,
        engine,
        shared.make_budget(config.search_rate),
        stream=f"ue{entry.ue_id}.measurement",
    )
    algorithm = factory(channel)
    result = algorithm.align(context, streams["algorithm"])
    evaluation = evaluate_pair(snr_matrix, result.selected)
    return UEOutcome(
        ue_id=entry.ue_id,
        loss_db=evaluation.loss_db,
        mean_snr=evaluation.mean_snr,
        optimal_snr=evaluation.optimal_snr,
        selected_tx=result.selected.tx_index,
        selected_rx=result.selected.rx_index,
        measurements_used=result.measurements_used,
        interference_probability=probability,
        interference_hits=engine.interference_hits,
    )


def check_batch_users(batch_users: Optional[int]) -> None:
    """Reject a negative ``batch_users`` (``None`` and ``0`` mean serial)."""
    if batch_users is not None and batch_users < 0:
        raise ConfigurationError(f"batch_users must be >= 0, got {batch_users}")


def execute_ues(
    scenario: Scenario,
    config: CellConfig,
    entries: Sequence[UESchedule],
    batch_users: Optional[int] = None,
) -> List[UEOutcome]:
    """Align every scheduled UE; outcomes come back in entry order.

    ``batch_users`` of ``None`` or ``0`` runs the serial reference path
    (one channel draw and one exact SNR matrix per UE); a positive value
    fans channel sampling and ground truth into stacked blocks of that
    many UEs. Both paths consume
    identical per-UE streams, so outcomes are bit-identical.
    """
    check_batch_users(batch_users)
    entries = list(entries)
    if not entries:
        return []
    factory = config.scheme.build_factory()
    shared = scenario.context()
    outcomes: List[UEOutcome] = []
    if not batch_users:
        for entry in entries:
            streams = ue_streams(config.base_seed, entry.ue_id)
            channel = scenario.sample_channel(streams["channel"])
            snr_matrix = channel.mean_snr_matrix(
                shared.tx_codebook, shared.rx_codebook
            )
            outcomes.append(
                _align_ue(scenario, config, entry, channel, snr_matrix, streams, factory)
            )
        return outcomes
    logger.debug(
        "execute_ues: %d UEs in blocks of %d", len(entries), batch_users
    )
    for start in range(0, len(entries), batch_users):
        block = entries[start : start + batch_users]
        block_streams = [ue_streams(config.base_seed, entry.ue_id) for entry in block]
        channels = scenario.sample_channel_batch(
            [streams["channel"] for streams in block_streams]
        )
        snr_matrices = mean_snr_matrices(
            channels, shared.tx_codebook, shared.rx_codebook
        )
        for entry, streams, channel, snr_matrix in zip(
            block, block_streams, channels, snr_matrices
        ):
            outcomes.append(
                _align_ue(scenario, config, entry, channel, snr_matrix, streams, factory)
            )
    return outcomes

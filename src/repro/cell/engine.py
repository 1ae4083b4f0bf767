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
ue_id)``, never on which execution mode or shard ran it. UEs run in
blocks set up by :func:`repro.sim.batch.draw_block`, the trial engine's
own stacked channel and ground-truth step; per-UE results are
bit-identical for any block size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.channel.base import ClusteredChannel
from repro.core.base import AlignmentContext
from repro.cell.config import CellConfig
from repro.cell.scheduler import UESchedule
from repro.measurement.measurer import MeasurementEngine
from repro.obs import get_logger
from repro.sim.batch import check_block_size, draw_block
from repro.sim.metrics import evaluate_pair
from repro.sim.scenario import Scenario
from repro.utils.rng import trial_generator

__all__ = [
    "UE_STREAM_LABELS",
    "UEOutcome",
    "interference_probability",
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
    """The per-UE scheme loop over one UE's drawn channel."""
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


def execute_ues(
    scenario: Scenario,
    config: CellConfig,
    entries: Sequence[UESchedule],
    batch_users: Optional[int] = None,
) -> List[UEOutcome]:
    """Align every scheduled UE; outcomes come back in entry order.

    UEs run in stacked channel blocks of ``batch_users`` (``None`` or
    ``0``: one UE per block; negative values are rejected). Every UE
    consumes its own streams, so outcomes are bit-identical for any
    block size.
    """
    size = check_block_size(batch_users, "batch_users", minimum=0)
    entries = list(entries)
    factory = config.scheme.build_factory()
    logger.debug("execute_ues: %d UEs in blocks of %d", len(entries), size)
    outcomes: List[UEOutcome] = []
    for start in range(0, len(entries), size):
        block = entries[start : start + size]
        rngs = [trial_generator(config.base_seed, entry.ue_id) for entry in block]
        for entry, (streams, channel, snr_matrix) in zip(
            block, draw_block(scenario, rngs, UE_STREAM_LABELS)
        ):
            outcomes.append(
                _align_ue(scenario, config, entry, channel, snr_matrix, streams, factory)
            )
    return outcomes

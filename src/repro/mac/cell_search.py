"""Initial directional cell search.

Models the discovery problem of Barati et al. [12], which the paper's
introduction motivates: before any alignment has happened, the base
station periodically sweeps synchronization signals across random TX
directions while the mobile listens on its own (random or scanning) RX
beams; the mobile *detects* the cell the first time a sync burst's
measured power clears a detection threshold.

The simulation reports the discovery latency distribution — the quantity
that made omni-directional sync unattractive at mmWave range and
directional sync non-trivial (the range/rate discrepancy of Sec. I).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.arrays.codebook import Codebook
from repro.channel.base import ClusteredChannel
from repro.exceptions import ConfigurationError
from repro.measurement.measurer import MeasurementEngine
from repro.types import BeamPair

__all__ = ["CellSearchConfig", "CellSearchOutcome", "simulate_cell_search"]


@dataclass(frozen=True)
class CellSearchConfig:
    """Timing and detection parameters of the sync sweep."""

    sync_period_us: float = 40.0  # interval between sync bursts
    detection_threshold: float = 0.05  # power statistic needed to declare detection
    max_bursts: int = 4096  # give up after this many bursts
    rx_scan: bool = False  # mobile scans its beams in order instead of randomly

    def __post_init__(self) -> None:
        if self.sync_period_us <= 0:
            raise ConfigurationError("sync_period_us must be > 0")
        if self.detection_threshold <= 0:
            raise ConfigurationError("detection_threshold must be > 0")
        if self.max_bursts < 1:
            raise ConfigurationError("max_bursts must be >= 1")


@dataclass(frozen=True)
class CellSearchOutcome:
    """Result of one cell-search simulation."""

    detected: bool
    latency_us: float
    bursts_used: int
    detected_pair: Optional[BeamPair]
    detected_power: float


def simulate_cell_search(
    channel: ClusteredChannel,
    tx_codebook: Codebook,
    rx_codebook: Codebook,
    rng: np.random.Generator,
    config: Optional[CellSearchConfig] = None,
    fading_blocks: int = 1,
) -> CellSearchOutcome:
    """Run the directional sync sweep until detection or give-up.

    The base station transmits each burst on an independently random TX
    beam (the randomly-varying-direction strategy of [12]); the mobile
    listens on a random beam per burst, or sweeps its codebook in snake
    order when ``config.rx_scan`` is set.
    """
    config = config or CellSearchConfig()
    engine = MeasurementEngine(channel, rng, fading_blocks=fading_blocks)
    rx_order = rx_codebook.snake_order(0)
    latency_us = 0.0
    for burst_index in range(config.max_bursts):
        latency_us += config.sync_period_us
        tx_index = int(rng.integers(0, tx_codebook.num_beams))
        if config.rx_scan:
            rx_index = rx_order[burst_index % len(rx_order)]
        else:
            rx_index = int(rng.integers(0, rx_codebook.num_beams))
        pair = BeamPair(tx_index, rx_index)
        measurement = engine.measure_pair(tx_codebook, rx_codebook, pair)
        if measurement.power >= config.detection_threshold:
            return CellSearchOutcome(
                detected=True,
                latency_us=latency_us,
                bursts_used=burst_index + 1,
                detected_pair=pair,
                detected_power=float(measurement.power),
            )
    return CellSearchOutcome(
        detected=False,
        latency_us=latency_us,
        bursts_used=config.max_bursts,
        detected_pair=None,
        detected_power=0.0,
    )

"""End-to-end MAC simulation: train, then transmit, per coherence interval.

Couples every piece of the MAC substrate: per coherence interval the link
(1) redraws the channel's fast-fading statistics, (2) runs one alignment
and charges its airtime through :func:`~repro.mac.frames.training_timing`,
and (3) spends the rest of the interval transmitting at the capacity of
the selected pair. The simulator reports per-interval and aggregate
effective throughput — the system-level number that justifies spending
engineering effort on cheaper beam alignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.core.base import AlignmentContext, BeamAlignmentAlgorithm
from repro.core.result import AlignmentResult
from repro.exceptions import ConfigurationError
from repro.mac.frames import FrameConfig, TrainingTiming, training_timing
from repro.mac.throughput import EffectiveCapacity, effective_capacity
from repro.measurement.budget import MeasurementBudget
from repro.measurement.measurer import MeasurementEngine
from repro.sim.metrics import loss_from_matrix_db
from repro.sim.scenario import Scenario
from repro.utils.rng import spawn

__all__ = ["IntervalReport", "MacSimulationReport", "MacSimulator"]


@dataclass(frozen=True)
class IntervalReport:
    """One coherence interval: training cost and achieved throughput."""

    interval: int
    alignment: AlignmentResult
    timing: TrainingTiming
    capacity: EffectiveCapacity
    loss_db: float


@dataclass
class MacSimulationReport:
    """Aggregate over all simulated coherence intervals."""

    intervals: List[IntervalReport] = field(default_factory=list)

    @property
    def mean_net_bps_hz(self) -> float:
        """Average effective spectral efficiency."""
        return float(np.mean([i.capacity.net_bps_hz for i in self.intervals]))

    @property
    def mean_overhead(self) -> float:
        """Average training-overhead fraction."""
        return float(np.mean([i.capacity.overhead_fraction for i in self.intervals]))

    @property
    def mean_loss_db(self) -> float:
        """Average SNR loss of the selected pairs."""
        return float(np.mean([i.loss_db for i in self.intervals]))


def _count_slots(alignment: AlignmentResult) -> int:
    """TX-slots a trace occupies: runs of equal ``slot`` (``None`` is 0), >= 1."""
    slots = 0
    previous = None
    for measurement in alignment.trace:
        slot = measurement.slot if measurement.slot is not None else 0
        if slot != previous:
            slots += 1
            previous = slot
    return max(1, slots)


class MacSimulator:
    """Repeated train-then-transmit cycles for one scenario and scheme."""

    def __init__(
        self,
        scenario: Scenario,
        frame_config: Optional[FrameConfig] = None,
    ) -> None:
        self._scenario = scenario
        self._config = frame_config or FrameConfig()

    def run(
        self,
        algorithm_factory: Callable[[], BeamAlignmentAlgorithm],
        search_rate: float,
        num_intervals: int,
        rng: np.random.Generator,
    ) -> MacSimulationReport:
        """Simulate ``num_intervals`` coherence intervals."""
        if num_intervals < 1:
            raise ConfigurationError(f"num_intervals must be >= 1, got {num_intervals}")
        report = MacSimulationReport()
        for interval in range(num_intervals):
            channel_rng, engine_rng, algo_rng = spawn(rng, 3)
            channel = self._scenario.sample_channel(channel_rng)
            snr_matrix = channel.mean_snr_matrix(
                self._scenario.tx_codebook, self._scenario.rx_codebook
            )
            engine = MeasurementEngine(
                channel,
                engine_rng,
                fading_blocks=self._scenario.config.fading_blocks,
            )
            context = AlignmentContext(
                self._scenario.tx_codebook,
                self._scenario.rx_codebook,
                engine,
                MeasurementBudget.from_search_rate(
                    self._scenario.total_pairs, search_rate
                ),
            )
            alignment = algorithm_factory().align(context, algo_rng)
            timing = training_timing(
                self._config, alignment.measurements_used, _count_slots(alignment)
            )
            selected = alignment.selected
            achieved_snr = float(snr_matrix[selected.tx_index, selected.rx_index])
            overhead = min(1.0, timing.total_us / self._config.coherence_time_us)
            report.intervals.append(
                IntervalReport(
                    interval=interval,
                    alignment=alignment,
                    timing=timing,
                    capacity=effective_capacity(achieved_snr, overhead),
                    loss_db=loss_from_matrix_db(snr_matrix, selected),
                )
            )
        return report

"""MAC substrate: slot timing, train-then-transmit simulation, cell search."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_namespace

if TYPE_CHECKING:
    from repro.mac.cell_search import (
        CellSearchConfig,
        CellSearchOutcome,
        simulate_cell_search,
    )
    from repro.mac.frames import FrameConfig, TrainingTiming, training_timing
    from repro.mac.simulator import IntervalReport, MacSimulationReport, MacSimulator
    from repro.mac.throughput import EffectiveCapacity, effective_capacity

__all__ = [
    "CellSearchConfig",
    "CellSearchOutcome",
    "simulate_cell_search",
    "FrameConfig",
    "TrainingTiming",
    "training_timing",
    "IntervalReport",
    "MacSimulationReport",
    "MacSimulator",
    "EffectiveCapacity",
    "effective_capacity",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.mac.cell_search": (
            "CellSearchConfig",
            "CellSearchOutcome",
            "simulate_cell_search",
        ),
        "repro.mac.frames": ("FrameConfig", "TrainingTiming", "training_timing"),
        "repro.mac.simulator": (
            "IntervalReport",
            "MacSimulationReport",
            "MacSimulator",
        ),
        "repro.mac.throughput": ("EffectiveCapacity", "effective_capacity"),
    },
)

"""MAC substrate: event kernel, frames, messages, training protocol."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_namespace

if TYPE_CHECKING:
    from repro.mac.cell_search import (
        CellSearchConfig,
        CellSearchOutcome,
        simulate_cell_search,
    )
    from repro.mac.events import EventHandle, EventScheduler
    from repro.mac.frames import FrameConfig, TrainingTiming, training_timing
    from repro.mac.messages import (
        Beacon,
        BestPairFeedback,
        MeasurementReport,
        MessageType,
        TrainingAnnouncement,
    )
    from repro.mac.protocol import (
        BeamTrainingSession,
        TimelineEntry,
        TrainingSessionResult,
    )
    from repro.mac.simulator import IntervalReport, MacSimulationReport, MacSimulator
    from repro.mac.throughput import EffectiveCapacity, effective_capacity

__all__ = [
    "CellSearchConfig",
    "CellSearchOutcome",
    "simulate_cell_search",
    "EventHandle",
    "EventScheduler",
    "FrameConfig",
    "TrainingTiming",
    "training_timing",
    "Beacon",
    "BestPairFeedback",
    "MeasurementReport",
    "MessageType",
    "TrainingAnnouncement",
    "BeamTrainingSession",
    "TimelineEntry",
    "TrainingSessionResult",
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
        "repro.mac.events": ("EventHandle", "EventScheduler"),
        "repro.mac.frames": ("FrameConfig", "TrainingTiming", "training_timing"),
        "repro.mac.messages": (
            "Beacon",
            "BestPairFeedback",
            "MeasurementReport",
            "MessageType",
            "TrainingAnnouncement",
        ),
        "repro.mac.protocol": (
            "BeamTrainingSession",
            "TimelineEntry",
            "TrainingSessionResult",
        ),
        "repro.mac.simulator": (
            "IntervalReport",
            "MacSimulationReport",
            "MacSimulator",
        ),
        "repro.mac.throughput": ("EffectiveCapacity", "effective_capacity"),
    },
)

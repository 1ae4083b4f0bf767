"""Measurement plane: the dwell engine, digital observations, budget accounting."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_namespace

if TYPE_CHECKING:
    from repro.measurement.budget import MeasurementBudget, measurements_for_search_rate
    from repro.measurement.digital import (
        beam_powers_from_observations,
        observe_rx_vector,
    )
    from repro.measurement.measurer import Measurement, MeasurementEngine

__all__ = [
    "MeasurementBudget",
    "measurements_for_search_rate",
    "beam_powers_from_observations",
    "observe_rx_vector",
    "Measurement",
    "MeasurementEngine",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.measurement.budget": (
            "MeasurementBudget",
            "measurements_for_search_rate",
        ),
        "repro.measurement.digital": (
            "beam_powers_from_observations",
            "observe_rx_vector",
        ),
        "repro.measurement.measurer": ("Measurement", "MeasurementEngine"),
    },
)

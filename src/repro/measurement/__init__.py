"""Measurement plane: pilot signals, matched filtering, budget accounting."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_namespace

if TYPE_CHECKING:
    from repro.measurement.budget import MeasurementBudget, measurements_for_search_rate
    from repro.measurement.digital import (
        beam_powers_from_observations,
        observe_rx_vector,
        vector_sample_covariance,
    )
    from repro.measurement.measurer import Measurement, MeasurementEngine
    from repro.measurement.signal import (
        PilotSignal,
        matched_filter,
        measurement_statistic,
        simulate_measurement,
    )

__all__ = [
    "MeasurementBudget",
    "measurements_for_search_rate",
    "beam_powers_from_observations",
    "observe_rx_vector",
    "vector_sample_covariance",
    "Measurement",
    "MeasurementEngine",
    "PilotSignal",
    "matched_filter",
    "measurement_statistic",
    "simulate_measurement",
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
            "vector_sample_covariance",
        ),
        "repro.measurement.measurer": ("Measurement", "MeasurementEngine"),
        "repro.measurement.signal": (
            "PilotSignal",
            "matched_filter",
            "measurement_statistic",
            "simulate_measurement",
        ),
    },
)

"""Antenna arrays, steering vectors, and beam codebooks."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_namespace

if TYPE_CHECKING:
    from repro.arrays.beampattern import (
        PatternStats,
        analyze_pattern,
        array_factor,
        pattern_cut_db,
    )
    from repro.arrays.codebook import Codebook, CodebookGainCache
    from repro.arrays.geometry import ArrayGeometry
    from repro.arrays.hierarchical import HierarchicalCodebook, WideBeam
    from repro.arrays.steering import (
        direction_unit_vector,
        steering_matrix,
        steering_vector,
    )
    from repro.arrays.ula import UniformLinearArray
    from repro.arrays.upa import UniformPlanarArray

__all__ = [
    "PatternStats",
    "analyze_pattern",
    "array_factor",
    "pattern_cut_db",
    "ArrayGeometry",
    "Codebook",
    "CodebookGainCache",
    "HierarchicalCodebook",
    "WideBeam",
    "UniformLinearArray",
    "UniformPlanarArray",
    "direction_unit_vector",
    "steering_matrix",
    "steering_vector",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.arrays.beampattern": (
            "PatternStats",
            "analyze_pattern",
            "array_factor",
            "pattern_cut_db",
        ),
        "repro.arrays.codebook": ("Codebook", "CodebookGainCache"),
        "repro.arrays.geometry": ("ArrayGeometry",),
        "repro.arrays.hierarchical": ("HierarchicalCodebook", "WideBeam"),
        "repro.arrays.steering": (
            "direction_unit_vector",
            "steering_matrix",
            "steering_vector",
        ),
        "repro.arrays.ula": ("UniformLinearArray",),
        "repro.arrays.upa": ("UniformPlanarArray",),
    },
)

"""Shared utilities: linear algebra, geometry, RNG, validation, serialization."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_namespace

if TYPE_CHECKING:
    from repro.utils.geometry import Direction, uniform_sine_grid, wrap_angle
    from repro.utils.linalg import (
        db_to_linear,
        dominant_eigenvector,
        effective_rank,
        eigh_sorted,
        energy_fraction,
        hermitian,
        linear_to_db,
        nuclear_norm,
        project_psd,
        quadratic_forms,
        random_psd,
        soft_threshold_eigenvalues,
        unit_norm,
    )
    from repro.utils.rng import complex_normal, spawn, trial_generator
    from repro.utils.serialization import dump, dumps, load, loads, to_jsonable

__all__ = [
    "Direction",
    "uniform_sine_grid",
    "wrap_angle",
    "db_to_linear",
    "dominant_eigenvector",
    "effective_rank",
    "eigh_sorted",
    "energy_fraction",
    "hermitian",
    "linear_to_db",
    "nuclear_norm",
    "project_psd",
    "quadratic_forms",
    "random_psd",
    "soft_threshold_eigenvalues",
    "unit_norm",
    "complex_normal",
    "spawn",
    "trial_generator",
    "dump",
    "dumps",
    "load",
    "loads",
    "to_jsonable",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.utils.geometry": ("Direction", "uniform_sine_grid", "wrap_angle"),
        "repro.utils.linalg": (
            "db_to_linear",
            "dominant_eigenvector",
            "effective_rank",
            "eigh_sorted",
            "energy_fraction",
            "hermitian",
            "linear_to_db",
            "nuclear_norm",
            "project_psd",
            "quadratic_forms",
            "random_psd",
            "soft_threshold_eigenvalues",
            "unit_norm",
        ),
        "repro.utils.rng": ("complex_normal", "spawn", "trial_generator"),
        "repro.utils.serialization": ("dump", "dumps", "load", "loads", "to_jsonable"),
    },
)

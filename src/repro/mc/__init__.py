"""Matrix-completion substrate: operators, SVT, FISTA, OptSpace."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_namespace

if TYPE_CHECKING:
    from repro.mc.fista import fista_nuclear
    from repro.mc.metrics import relative_error
    from repro.mc.operators import EntryMask, QuadraticFormOperator
    from repro.mc.optspace import optspace_complete, spectral_initialization, trim_mask
    from repro.mc.result import SolverResult
    from repro.mc.svt import shrink_singular_values, svt_complete

__all__ = [
    "fista_nuclear",
    "relative_error",
    "EntryMask",
    "QuadraticFormOperator",
    "optspace_complete",
    "spectral_initialization",
    "trim_mask",
    "SolverResult",
    "shrink_singular_values",
    "svt_complete",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.mc.fista": ("fista_nuclear",),
        "repro.mc.metrics": ("relative_error",),
        "repro.mc.operators": ("EntryMask", "QuadraticFormOperator"),
        "repro.mc.optspace": (
            "optspace_complete",
            "spectral_initialization",
            "trim_mask",
        ),
        "repro.mc.result": ("SolverResult",),
        "repro.mc.svt": ("shrink_singular_values", "svt_complete"),
    },
)

"""Low-rank covariance substrate: quadratic-form operator and FISTA."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_namespace

if TYPE_CHECKING:
    from repro.mc.fista import fista_nuclear
    from repro.mc.operators import QuadraticFormOperator
    from repro.mc.result import SolverResult

__all__ = [
    "fista_nuclear",
    "QuadraticFormOperator",
    "SolverResult",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.mc.fista": ("fista_nuclear",),
        "repro.mc.operators": ("QuadraticFormOperator",),
        "repro.mc.result": ("SolverResult",),
    },
)

"""Baseline beam-alignment schemes the paper compares against."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_namespace

if TYPE_CHECKING:
    from repro.baselines.digital_rx import DigitalRxSearch
    from repro.baselines.genie import GenieAligner
    from repro.baselines.hierarchical_search import HierarchicalSearch
    from repro.baselines.local_refine import LocalRefineSearch
    from repro.baselines.random_search import RandomSearch
    from repro.baselines.scan_search import ScanSearch
    from repro.baselines.ucb import UcbSearch

__all__ = [
    "DigitalRxSearch",
    "GenieAligner",
    "HierarchicalSearch",
    "LocalRefineSearch",
    "RandomSearch",
    "ScanSearch",
    "UcbSearch",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.baselines.digital_rx": ("DigitalRxSearch",),
        "repro.baselines.genie": ("GenieAligner",),
        "repro.baselines.hierarchical_search": ("HierarchicalSearch",),
        "repro.baselines.local_refine": ("LocalRefineSearch",),
        "repro.baselines.random_search": ("RandomSearch",),
        "repro.baselines.scan_search": ("ScanSearch",),
        "repro.baselines.ucb": ("UcbSearch",),
    },
)

"""Core contribution: the adaptive beam-alignment algorithm and interfaces."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_namespace

if TYPE_CHECKING:
    from repro.core.base import AlignmentContext, BeamAlignmentAlgorithm, BudgetLadder
    from repro.core.bidirectional import BidirectionalAlignment
    from repro.core.proposed import ProposedAlignment
    from repro.core.result import AlignmentResult, ProbeTrace, SlotRecord

__all__ = [
    "AlignmentContext",
    "BeamAlignmentAlgorithm",
    "BudgetLadder",
    "BidirectionalAlignment",
    "ProposedAlignment",
    "AlignmentResult",
    "ProbeTrace",
    "SlotRecord",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.core.base": ("AlignmentContext", "BeamAlignmentAlgorithm", "BudgetLadder"),
        "repro.core.bidirectional": ("BidirectionalAlignment",),
        "repro.core.proposed": ("ProposedAlignment",),
        "repro.core.result": ("AlignmentResult", "ProbeTrace", "SlotRecord"),
    },
)

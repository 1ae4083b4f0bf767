"""Exception hierarchy for the :mod:`repro` package.

Every error intentionally raised by this library derives from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while letting genuine programming errors propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ConfigurationError(ReproError):
    """A scenario, algorithm, or solver was configured inconsistently."""


class ValidationError(ReproError):
    """An input array or scalar failed a structural validation check."""


class BudgetExhaustedError(ReproError):
    """A beam-search algorithm was asked to measure beyond its budget."""


class ExperimentError(ReproError):
    """An experiment id was unknown or an experiment produced bad output."""


class CampaignError(ReproError):
    """A campaign plan, store, or scheduler reached an inconsistent state."""


class CampaignAborted(CampaignError):
    """A campaign run stopped before completing every shard.

    Raised by the scheduler when a fault injector (or a caller-provided
    hook) aborts the run mid-campaign. Completed shards are already in
    the store, so re-running the same plan resumes where it left off.
    """


class ShardExecutionError(CampaignError):
    """A shard exhausted its retry budget without producing a result."""

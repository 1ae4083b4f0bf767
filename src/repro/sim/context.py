"""Shared, immutable per-scenario precomputation.

A figure sweep runs thousands of trials against the *same*
:class:`~repro.sim.config.ScenarioConfig`: identical arrays and
codebooks. Building those per trial (or per worker task) wastes most of
the setup time of short trials. A :class:`ScenarioContext` bundles
everything deterministic about a configuration: the scenario and both
codebooks. A scenario builds it once
(:meth:`~repro.sim.scenario.Scenario.context`), and each process builds
one scenario per config (:func:`repro.sim.parallel._scenario_for`), so
every trial and shard a process runs shares one copy.

Everything in the context is immutable (codebook vectors are read-only
arrays); sharing it across trials cannot leak state between them.
Channel realizations stay per-trial, drawn through
:meth:`~repro.sim.scenario.Scenario.sample_channel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.arrays.codebook import Codebook
from repro.measurement.budget import MeasurementBudget
from repro.sim.config import ScenarioConfig

if TYPE_CHECKING:
    from repro.sim.scenario import Scenario

__all__ = ["ScenarioContext"]


@dataclass(frozen=True)
class ScenarioContext:
    """Immutable precomputed state shared by every trial of a scenario."""

    scenario: Scenario

    # -- accessors ------------------------------------------------------

    @property
    def config(self) -> ScenarioConfig:
        """The source configuration."""
        return self.scenario.config

    @property
    def tx_codebook(self) -> Codebook:
        """TX beam set ``U`` (shared instance, immutable)."""
        return self.scenario.tx_codebook

    @property
    def rx_codebook(self) -> Codebook:
        """RX beam set ``V`` (shared instance, immutable)."""
        return self.scenario.rx_codebook

    @property
    def total_pairs(self) -> int:
        """``T = card(U) * card(V)`` (Eq. 1)."""
        return self.scenario.total_pairs

    # -- budgets --------------------------------------------------------

    def make_budget(self, search_rate: float) -> MeasurementBudget:
        """A fresh budget for one alignment run at the given search rate."""
        return MeasurementBudget.from_search_rate(self.total_pairs, search_rate)

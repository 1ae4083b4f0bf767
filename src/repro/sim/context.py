"""Shared, immutable per-scenario precomputation.

A figure sweep runs thousands of trials against the *same*
:class:`~repro.sim.config.ScenarioConfig`: identical arrays, codebooks,
and pair enumeration. Building those per trial (or per worker task)
wastes most of the setup time of short trials. A :class:`ScenarioContext`
bundles everything deterministic about a configuration — the scenario,
both codebooks, and the flat pair-index table. A scenario builds it
once (:meth:`~repro.sim.scenario.Scenario.context`), and each process
builds one scenario per config (:func:`repro.sim.parallel._scenario_for`),
so every trial and shard a process runs shares one copy.

Everything in the context is immutable (codebook vectors and the pair
table are read-only arrays); sharing it across trials cannot leak state
between them. Channel realizations stay per-trial, drawn through
:meth:`~repro.sim.scenario.Scenario.sample_channel` as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.arrays.codebook import Codebook
from repro.exceptions import ValidationError
from repro.measurement.budget import MeasurementBudget
from repro.sim.config import ScenarioConfig
from repro.types import BeamPair

if TYPE_CHECKING:
    from repro.sim.scenario import Scenario

__all__ = ["ScenarioContext"]


@dataclass(frozen=True)
class ScenarioContext:
    """Immutable precomputed state shared by every trial of a scenario.

    ``pair_table`` enumerates all ``T`` codebook pairs in flat
    (row-major over ``(tx, rx)``) order: row ``i`` is
    ``(tx_index, rx_index)`` of flat index ``i``. It is the single
    source of truth for flat-index conversions, replacing ad-hoc
    ``divmod`` arithmetic scattered through callers.
    """

    scenario: Scenario
    pair_table: np.ndarray

    @classmethod
    def build(cls, scenario: Scenario) -> "ScenarioContext":
        """Precompute the context for an instantiated scenario."""
        n_tx = scenario.tx_codebook.num_beams
        n_rx = scenario.rx_codebook.num_beams
        table = np.empty((n_tx * n_rx, 2), dtype=np.int64)
        table[:, 0] = np.repeat(np.arange(n_tx), n_rx)
        table[:, 1] = np.tile(np.arange(n_rx), n_tx)
        table.setflags(write=False)
        return cls(scenario=scenario, pair_table=table)

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
        return int(self.pair_table.shape[0])

    # -- pair indexing --------------------------------------------------

    def pair_of(self, flat_index: int) -> BeamPair:
        """The codebook pair at a flat index."""
        if not 0 <= flat_index < self.total_pairs:
            raise ValidationError(
                f"flat index {flat_index} out of range [0, {self.total_pairs})"
            )
        tx_index, rx_index = self.pair_table[flat_index]
        return BeamPair(int(tx_index), int(rx_index))

    def flat_of(self, pair: BeamPair) -> int:
        """The flat index of a codebook pair."""
        n_rx = self.scenario.rx_codebook.num_beams
        if not (
            0 <= pair.tx_index < self.scenario.tx_codebook.num_beams
            and 0 <= pair.rx_index < n_rx
        ):
            raise ValidationError(f"pair {pair} out of codebook range")
        return pair.tx_index * n_rx + pair.rx_index

    # -- budgets --------------------------------------------------------

    def make_budget(self, search_rate: float) -> MeasurementBudget:
        """A fresh budget for one alignment run at the given search rate."""
        return MeasurementBudget.from_search_rate(self.total_pairs, search_rate)

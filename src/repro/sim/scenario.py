"""Scenario assembly: configs to arrays, codebooks, and channel draws."""

from __future__ import annotations

import numpy as np

from repro.arrays.codebook import Codebook
from repro.arrays.upa import UniformPlanarArray
from repro.channel.base import ClusteredChannel
from repro.channel.batch import build_channels
from repro.channel.clusters import (
    ClusterParams,
    sample_cluster_columns,
    sample_singlepath_columns,
)
from repro.sim.config import ChannelKind, ScenarioConfig
from repro.sim.context import ScenarioContext

__all__ = ["Scenario"]


class Scenario:
    """Instantiated arrays and codebooks for a configuration.

    The scenario is the *deterministic* part of an experiment; channel
    realizations are drawn per trial through :meth:`sample_channel`.
    """

    def __init__(self, config: ScenarioConfig) -> None:
        self._config = config
        self._tx_array = UniformPlanarArray(*config.tx_shape, spacing=config.spacing)
        self._rx_array = UniformPlanarArray(*config.rx_shape, spacing=config.spacing)
        tx_rows, tx_cols = config.effective_tx_beam_grid
        rx_rows, rx_cols = config.effective_rx_beam_grid
        self._tx_codebook = Codebook.grid(
            self._tx_array, n_azimuth=tx_cols, n_elevation=tx_rows, name="tx"
        )
        self._rx_codebook = Codebook.grid(
            self._rx_array, n_azimuth=rx_cols, n_elevation=rx_rows, name="rx"
        )
        self._context = None

    @property
    def config(self) -> ScenarioConfig:
        """The source configuration."""
        return self._config

    @property
    def tx_array(self) -> UniformPlanarArray:
        """Transmit array."""
        return self._tx_array

    @property
    def rx_array(self) -> UniformPlanarArray:
        """Receive array."""
        return self._rx_array

    @property
    def tx_codebook(self) -> Codebook:
        """TX beam set ``U``."""
        return self._tx_codebook

    @property
    def rx_codebook(self) -> Codebook:
        """RX beam set ``V``."""
        return self._rx_codebook

    @property
    def total_pairs(self) -> int:
        """``T`` of Eq. (1)."""
        return self._tx_codebook.num_beams * self._rx_codebook.num_beams

    def context(self) -> ScenarioContext:
        """The precomputed :class:`~repro.sim.context.ScenarioContext`.

        Built lazily on first use and cached on the scenario, so every
        trial run against this scenario shares one pair-index table.
        """
        if self._context is None:
            self._context = ScenarioContext.build(self)
        return self._context

    def sample_channel(self, rng: np.random.Generator) -> ClusteredChannel:
        """Draw a channel realization of the configured family."""
        return self.sample_channel_batch([rng])[0]

    def sample_channel_batch(self, rngs) -> "list[ClusteredChannel]":
        """Draw one channel realization per generator, batched.

        Each generator feeds the column kernel of
        :mod:`repro.channel.clusters` (subpath powers and angles), then
        the steering for the whole batch is built through the stacked
        GEMMs of :mod:`repro.channel.batch`. A realization depends only
        on its own generator, whatever batch it is drawn in.
        """
        params = self._config.cluster_params or ClusterParams()
        if self._config.channel is ChannelKind.SINGLEPATH:
            draw = sample_singlepath_columns
        else:
            draw = sample_cluster_columns
        return build_channels(
            self._tx_array,
            self._rx_array,
            [draw(rng, params) for rng in rngs],
            snr=self._config.snr_linear,
            total_power=1.0,
        )

    def __repr__(self) -> str:
        return (
            f"Scenario(channel={self._config.channel.value},"
            f" tx={self._tx_codebook.num_beams} beams,"
            f" rx={self._rx_codebook.num_beams} beams,"
            f" snr={self._config.snr_db:g} dB)"
        )

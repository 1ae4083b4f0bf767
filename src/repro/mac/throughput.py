"""Throughput and overhead accounting.

Converts a training session's airtime and its achieved beamforming SNR
into an *effective capacity*: within each channel coherence interval the
link must re-train (the paper: "as the channel conditions are dynamic,
the direction finding may need to be performed constantly"), so

``C_eff = (1 - t_train / T_coherence) * log2(1 + SNR_selected)``

This is the quantity that makes the search-rate trade-off real: a larger
budget finds a better beam pair (higher SNR) but burns more of every
coherence interval on training. The ``mac-overhead`` benchmark sweeps it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError

__all__ = ["EffectiveCapacity", "effective_capacity"]


@dataclass(frozen=True)
class EffectiveCapacity:
    """Net spectral efficiency after training overhead."""

    snr_linear: float
    overhead_fraction: float
    gross_bps_hz: float
    net_bps_hz: float


def effective_capacity(
    snr_linear: float,
    overhead_fraction: float,
) -> EffectiveCapacity:
    """Shannon capacity discounted by the training-time fraction."""
    if snr_linear < 0:
        raise ValidationError(f"snr_linear must be >= 0, got {snr_linear}")
    if not 0.0 <= overhead_fraction <= 1.0:
        raise ValidationError(
            f"overhead_fraction must be in [0, 1], got {overhead_fraction}"
        )
    gross = float(np.log2(1.0 + snr_linear))
    return EffectiveCapacity(
        snr_linear=float(snr_linear),
        overhead_fraction=float(overhead_fraction),
        gross_bps_hz=gross,
        net_bps_hz=gross * (1.0 - overhead_fraction),
    )

"""Tests for throughput/overhead accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.mac.throughput import effective_capacity


class TestEffectiveCapacity:
    def test_shannon_gross(self):
        cap = effective_capacity(snr_linear=1.0, overhead_fraction=0.0)
        assert cap.gross_bps_hz == pytest.approx(1.0)
        assert cap.net_bps_hz == pytest.approx(1.0)

    def test_overhead_discount(self):
        cap = effective_capacity(snr_linear=3.0, overhead_fraction=0.25)
        assert cap.net_bps_hz == pytest.approx(0.75 * np.log2(4.0))

    def test_full_overhead_zero_net(self):
        assert effective_capacity(100.0, 1.0).net_bps_hz == 0.0

    def test_zero_snr(self):
        assert effective_capacity(0.0, 0.0).gross_bps_hz == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            effective_capacity(-1.0, 0.0)
        with pytest.raises(ValidationError):
            effective_capacity(1.0, 1.5)

"""Cell-workload configuration.

A :class:`CellConfig` pins down everything that determines a cell-scale
run's seeded outcome: the link-level scenario (arrays, codebooks,
channel family), the Poisson arrival process, the MAC frame timing the
airtime scheduler allocates against, the per-frame probe budget, the
scheme every UE runs, and the interference coupling between co-scheduled
UEs. Like :class:`~repro.sim.config.ScenarioConfig` it is frozen,
hashable, and round-trips through ``to_dict``/``from_dict`` — the cell
plan digests are blake2b hashes of its canonical JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.exceptions import ConfigurationError
from repro.mac.frames import FrameConfig
from repro.measurement.budget import measurements_for_search_rate
from repro.sim.config import ScenarioConfig
from repro.sim.parallel import SchemeSpec

__all__ = ["CellConfig", "DEFAULT_CELL_SEED"]

#: Default base seed for cell runs (the paper's publication year).
DEFAULT_CELL_SEED = 2016


@dataclass(frozen=True)
class CellConfig:
    """Full specification of a cell-scale alignment-as-a-service run."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    #: UEs requesting alignment (the arrival process stops after this many).
    num_users: int = 500
    #: Poisson arrival intensity, UE arrivals per second.
    arrival_rate_hz: float = 2000.0
    #: Optional arrival-window cap in seconds; arrivals past it are
    #: dropped (the cell stops admitting). ``None`` admits all users.
    duration_s: Optional[float] = None
    #: Per-UE search rate: fraction of the pair space each alignment may probe.
    search_rate: float = 0.05
    #: The scheme every UE runs (one shared BS codebook, one scheme).
    scheme: SchemeSpec = field(default_factory=lambda: SchemeSpec.of("Scan"))
    base_seed: int = DEFAULT_CELL_SEED
    #: MAC frame timing the airtime scheduler allocates against.
    frame: FrameConfig = field(default_factory=FrameConfig)
    #: Beam-pair measurement grants available per superframe (the shared
    #: training region all contending UEs queue for).
    probe_budget_per_frame: int = 64
    #: Per co-scheduled UE contribution to the impulsive-interference hit
    #: probability: a UE sharing its frames with ``c`` others measures
    #: under ``p = min(1, coupling * c)``.
    interference_coupling: float = 0.05
    #: Power of one interference impulse (post matched filter).
    interference_power: float = 2.0

    def __post_init__(self) -> None:
        if self.num_users < 1:
            raise ConfigurationError(f"num_users must be >= 1, got {self.num_users}")
        if self.num_users >= 2**31 - 1:
            raise ConfigurationError("num_users must fit the UE stream namespace")
        if self.arrival_rate_hz <= 0:
            raise ConfigurationError(
                f"arrival_rate_hz must be > 0, got {self.arrival_rate_hz}"
            )
        if self.duration_s is not None and self.duration_s <= 0:
            raise ConfigurationError(
                f"duration_s must be > 0 when set, got {self.duration_s}"
            )
        if not 0.0 < self.search_rate <= 1.0:
            raise ConfigurationError(
                f"search_rate must be in (0, 1], got {self.search_rate}"
            )
        if self.probe_budget_per_frame < 1:
            raise ConfigurationError(
                f"probe_budget_per_frame must be >= 1,"
                f" got {self.probe_budget_per_frame}"
            )
        training_us = (
            self.frame.beacon_duration_us
            + self.probe_budget_per_frame * self.frame.measurement_duration_us
            + self.frame.feedback_duration_us
        )
        if training_us > self.frame.superframe_duration_us:
            raise ConfigurationError(
                f"probe budget does not fit the superframe:"
                f" {training_us:g}us of training in a"
                f" {self.frame.superframe_duration_us:g}us frame"
            )
        coupling, power = self.interference_coupling, self.interference_power
        if not math.isfinite(coupling) or coupling < 0:
            raise ConfigurationError(
                f"interference_coupling must be finite and >= 0, got {coupling}"
            )
        if not math.isfinite(power) or power < 0:
            raise ConfigurationError(
                f"interference_power must be finite and >= 0, got {power}"
            )

    def measurements_per_ue(self) -> int:
        """Each UE's measurement demand implied by the search rate."""
        return measurements_for_search_rate(
            self.scenario.total_pairs, self.search_rate
        )

    def to_dict(self) -> dict:
        """JSON-serializable mapping; round-trips through :meth:`from_dict`."""
        from repro.utils.serialization import to_jsonable

        payload = to_jsonable(self)
        assert isinstance(payload, dict)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "CellConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        scheme = payload.get("scheme") or {}
        params = scheme.get("params") or []
        duration = payload.get("duration_s")
        return cls(
            scenario=ScenarioConfig.from_dict(payload["scenario"]),
            num_users=int(payload["num_users"]),
            arrival_rate_hz=float(payload["arrival_rate_hz"]),
            duration_s=None if duration is None else float(duration),
            search_rate=float(payload["search_rate"]),
            scheme=SchemeSpec.of(scheme["name"], **{k: v for k, v in params}),
            base_seed=int(payload["base_seed"]),
            frame=FrameConfig(**payload["frame"]),
            probe_budget_per_frame=int(payload["probe_budget_per_frame"]),
            interference_coupling=float(payload["interference_coupling"]),
            interference_power=float(payload["interference_power"]),
        )

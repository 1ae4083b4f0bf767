"""Picklable scheme specs and the per-process scenario cache.

The scheme factories used by :func:`repro.sim.runner.run_trial` are
closures and do not pickle. A :class:`SchemeSpec` names a registered
scheme plus its constructor keyword arguments, so a plan can carry its
schemes across process boundaries and into content addresses.

:func:`_scenario_for` builds one :class:`~repro.sim.scenario.Scenario`
per config and process; campaign shards
(:meth:`repro.campaign.plan.ShardSpec.execute`), cell shards and the
lease loop's priming step all share it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Tuple

from repro.baselines.digital_rx import DigitalRxSearch
from repro.baselines.genie import GenieAligner
from repro.baselines.hierarchical_search import HierarchicalSearch
from repro.baselines.local_refine import LocalRefineSearch
from repro.baselines.random_search import RandomSearch
from repro.baselines.scan_search import ScanSearch
from repro.baselines.ucb import UcbSearch
from repro.core.bidirectional import BidirectionalAlignment
from repro.core.proposed import ProposedAlignment
from repro.exceptions import ConfigurationError
from repro.sim.config import ScenarioConfig
# run_trial is not called here; perfbench's tracer test still looks it
# up on this module to check that every binding gets wrapped.
from repro.sim.runner import run_trial  # noqa: F401
from repro.sim.scenario import Scenario

__all__ = ["SchemeSpec", "SCHEME_BUILDERS"]

#: Scheme name -> constructor. Every entry must be constructible from
#: keyword arguments alone; the genie additionally receives the channel.
SCHEME_BUILDERS = {
    "Random": RandomSearch,
    "Scan": ScanSearch,
    "Proposed": ProposedAlignment,
    "Bidirectional": BidirectionalAlignment,
    "Hierarchical": HierarchicalSearch,
    "LocalRefine": LocalRefineSearch,
    "UCB": UcbSearch,
    "DigitalRx": DigitalRxSearch,
    "Genie": GenieAligner,
}


@dataclass(frozen=True)
class SchemeSpec:
    """A picklable scheme description: registered name + kwargs.

    Construction builds the scheme once and discards it, so a bad name or
    parameter raises the scheme's own error here, in the caller, before
    any shard runs or worker forks. The genie is the exception: it needs
    a channel, so its parameters are first checked per trial.
    """

    name: str
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.name not in SCHEME_BUILDERS:
            known = ", ".join(sorted(SCHEME_BUILDERS))
            raise ConfigurationError(f"unknown scheme {self.name!r}; known: {known}")
        if self.name != "Genie":
            SCHEME_BUILDERS[self.name](**dict(self.params))

    @classmethod
    def of(cls, name: str, **params: object) -> "SchemeSpec":
        """Convenience constructor: ``SchemeSpec.of("Proposed", exploration=0.1)``."""
        return cls(name=name, params=tuple(sorted(params.items())))

    def build_factory(self):
        """The channel-aware factory the trial runner expects."""
        builder = SCHEME_BUILDERS[self.name]
        kwargs = dict(self.params)
        if self.name == "Genie":
            return lambda channel: builder(channel, **kwargs)
        return lambda channel: builder(**kwargs)


@functools.lru_cache(maxsize=8)
def _scenario_for(config: ScenarioConfig) -> Scenario:
    """Per-process scenario cache (codebooks are immutable)."""
    scenario = Scenario(config)
    scenario.context()  # build the shared trial context once per process
    return scenario

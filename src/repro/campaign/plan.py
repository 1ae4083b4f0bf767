"""Shard planning: decompose a sweep into deterministic units of work.

A **shard** is the atom of campaign execution: one scenario config, one
tuple of scheme specs, one search rate, and one contiguous trial index
range ``[trial_start, trial_start + trial_count)`` under one base seed.
Because trial ``k`` always draws from ``trial_generator(base_seed, k)``
(the repo-wide seeding contract), a shard's results do not depend on
which process runs it, when, or what ran before it — so shards can be
retried, reordered, resumed across interpreter restarts, and executed
through the batched engine, and the reassembled aggregate is bit-identical
to an uninterrupted serial run.

Every shard has a **digest**: a blake2b hash of its canonical JSON spec.
The digest is the shard's identity in the content-addressed store —
execution knobs that cannot change results (worker counts, in-process
batch sizes, retry budgets) are deliberately excluded, so artifacts
computed under any execution regime are interchangeable.

A shard kind is anything the lease loop
(:func:`repro.campaign.worker.run_worker`) and the
:class:`~repro.campaign.store.ShardStore` can run and persist without
knowing its type: a ``digest``, a ``trial_start``/``trial_count`` range,
a ``search_rate``, a ``scenario_config`` to prime, ``execute`` to run
it, and ``ARTIFACT_KIND``/``artifact_payload``/``result_from_artifact``
to write and check its store artifact. :class:`ShardSpec` (a trial
range of a sweep) and :class:`repro.cell.shards.CellShard` (a UE range
of a cell run) are the two kinds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.obs import get_logger
from repro.sim.batch import run_trial_blocks
from repro.sim.config import ScenarioConfig
from repro.sim.parallel import SchemeSpec, _scenario_for
from repro.utils.serialization import canonical_form, canonical_json, memoized_digest
from repro.version import __version__

__all__ = [
    "DEFAULT_SHARD_TRIALS",
    "ShardSpec",
    "CampaignPlan",
    "plan_effectiveness_sweep",
    "plan_from_payload",
    "standard_scheme_specs",
]

#: Shard-spec schema version, hashed into every digest: bump it when the
#: spec payload shape changes and old artifacts must not be reused.
SHARD_SCHEMA = "repro.campaign.shard/1"

#: Plan/manifest schema version.
PLAN_SCHEMA = "repro.campaign.plan/1"

#: Artifact kind of one executed campaign shard in the store.
SHARD_KIND = "campaign-shard-v1"

logger = get_logger("campaign.plan")

#: Default trials per shard: small enough that an interrupted paper-scale
#: run (tens of trials per rate) loses little work, large enough that
#: per-shard store/dispatch overhead stays negligible.
DEFAULT_SHARD_TRIALS = 8


def standard_scheme_specs(measurements_per_slot: int = 8) -> Tuple[SchemeSpec, ...]:
    """Picklable/digestable specs for the paper's three compared schemes.

    Mirrors :func:`repro.sim.runner.standard_schemes` (same names, same
    order, same constructor arguments), but as :class:`SchemeSpec` values
    a campaign can hash and ship across process boundaries.
    """
    return (
        SchemeSpec.of("Random"),
        SchemeSpec.of("Scan"),
        SchemeSpec.of("Proposed", measurements_per_slot=measurements_per_slot),
    )


@dataclass(frozen=True)
class ShardSpec:
    """One deterministic unit of campaign work.

    Fields are exactly the inputs that determine the shard's results;
    anything that cannot change seeded outcomes stays out (and therefore
    out of the digest).
    """

    config: ScenarioConfig
    schemes: Tuple[SchemeSpec, ...]
    search_rate: float
    base_seed: int
    trial_start: int
    trial_count: int

    #: Store artifact kind, checked on every read.
    ARTIFACT_KIND = SHARD_KIND

    def __post_init__(self) -> None:
        if not self.schemes:
            raise ConfigurationError("a shard needs at least one scheme spec")
        if not 0.0 < self.search_rate <= 1.0:
            raise ConfigurationError(
                f"search rate must be in (0, 1], got {self.search_rate}"
            )
        if self.trial_start < 0 or self.trial_count < 1:
            raise ConfigurationError(
                f"need trial_start >= 0 and trial_count >= 1, got "
                f"({self.trial_start}, {self.trial_count})"
            )

    @property
    def trial_indices(self) -> Tuple[int, ...]:
        """The global trial indices this shard covers."""
        return tuple(range(self.trial_start, self.trial_start + self.trial_count))

    @property
    def scenario_config(self) -> ScenarioConfig:
        """The scenario the lease loop primes before claiming anything."""
        return self.config

    def scheme_names(self) -> List[str]:
        """Scheme names in execution order."""
        return [spec.name for spec in self.schemes]

    def spec_head(self) -> Dict[str, Any]:
        """:meth:`spec_payload` without its ``config`` block."""
        return {
            "schema": SHARD_SCHEMA,
            "schemes": [
                {"name": spec.name, "params": dict(spec.params)}
                for spec in self.schemes
            ],
            "search_rate": self.search_rate,
            "base_seed": self.base_seed,
            "trial_start": self.trial_start,
            "trial_count": self.trial_count,
        }

    def spec_payload(self) -> Dict[str, Any]:
        """The canonical, JSON-serializable description of this shard."""
        return {**self.spec_head(), "config": self.config.to_dict()}

    def canonical_spec(self) -> str:
        """:meth:`spec_payload` as canonical JSON text, the bytes
        :attr:`digest` hashes.

        The config's text comes from the per-value cache, so a plan's
        shards encode their shared config once. The text is kept on the
        instance like :attr:`digest` (the plan digest hashes it too).
        """
        text = self.__dict__.get("_canonical")
        if text is None:
            text = canonical_json(
                self.spec_head(), {"config": canonical_form(self.config)[1]}
            )
            object.__setattr__(self, "_canonical", text)
        return text

    @property
    def digest(self) -> str:
        """Content address of this shard (blake2b of the canonical spec).

        Computed once per instance: the worker loop, leases, heartbeats
        and store paths all ask for it.
        """
        return memoized_digest(self, "_digest", self.canonical_spec)

    def execute(self, batch_trials: Optional[int] = None) -> Dict[str, List[float]]:
        """Run this shard's trials here; per-scheme loss series (dB).

        ``batch_trials`` trials share one stacked channel block (``None``:
        one trial per block); trial ``k`` draws from
        ``trial_generator(base_seed, k)`` whatever the block or process,
        so the series are the same for any block size.
        """
        scenario = _scenario_for(self.config)
        schemes = {spec.name: spec.build_factory() for spec in self.schemes}
        losses: Dict[str, List[float]] = {name: [] for name in schemes}
        for (outcomes,) in run_trial_blocks(
            scenario,
            schemes,
            [self.search_rate],
            self.base_seed,
            self.trial_indices,
            batch_trials,
        ):
            for name, series in losses.items():
                series.append(outcomes[name].loss_db)
        return losses

    def artifact_payload(self, losses: Mapping[str, List[float]]) -> Dict[str, Any]:
        """The store artifact of this shard's loss series.

        ``losses`` maps scheme name to the per-trial loss series for the
        shard's trial range, in trial order; any other shape raises
        :class:`ValueError`. The artifact carries a provenance header
        (schema, code version, base seed, scenario config) and the spec.
        """
        expected = {name: self.trial_count for name in self.scheme_names()}
        actual = {name: len(series) for name, series in losses.items()}
        if actual != expected:
            raise ValueError(
                f"shard result shape mismatch: expected {expected}, got {actual}"
            )
        config = canonical_form(self.config)[0]
        return {
            "kind": SHARD_KIND,
            "digest": self.digest,
            "provenance": {
                "schema": SHARD_SCHEMA,
                "code_version": __version__,
                "base_seed": self.base_seed,
                "config": config,
            },
            "spec": {**self.spec_head(), "config": config},
            "result": {"losses": losses},
        }

    def result_from_artifact(
        self, payload: Mapping[str, Any]
    ) -> Optional[Dict[str, List[float]]]:
        """The loss series a stored artifact holds, or ``None`` when
        mis-shaped. Artifacts from older versions may carry a
        ``provenance["backend"]`` field; it is ignored."""
        losses = payload["result"].get("losses")
        if not isinstance(losses, dict):
            logger.warning("shard %s artifact has no loss series", self.digest)
            return None
        names = self.scheme_names()
        if set(losses) != set(names) or any(
            len(losses[name]) != self.trial_count for name in names
        ):
            logger.warning("shard %s artifact has wrong shape", self.digest)
            return None
        return {name: [float(v) for v in losses[name]] for name in names}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ShardSpec":
        """Rebuild a shard from :meth:`spec_payload` output."""
        if payload.get("schema") != SHARD_SCHEMA:
            raise ConfigurationError(
                f"unsupported shard schema {payload.get('schema')!r}"
            )
        return cls(
            config=ScenarioConfig.from_dict(payload["config"]),
            schemes=tuple(
                SchemeSpec.of(entry["name"], **entry.get("params", {}))
                for entry in payload["schemes"]
            ),
            search_rate=float(payload["search_rate"]),
            base_seed=int(payload["base_seed"]),
            trial_start=int(payload["trial_start"]),
            trial_count=int(payload["trial_count"]),
        )


@dataclass(frozen=True)
class CampaignPlan:
    """An ordered set of shards plus the sweep geometry to reassemble them.

    ``shards`` are ordered rate-major, then by trial range — the same
    nesting as :func:`repro.sim.sweep.effectiveness_sweep` — so assembly
    is a straight concatenation.
    """

    shards: Tuple[ShardSpec, ...]
    search_rates: Tuple[float, ...]
    num_trials: int
    base_seed: int

    @property
    def total_trials(self) -> int:
        """Trials across all shards (rates x trials)."""
        return sum(shard.trial_count for shard in self.shards)

    @property
    def digest(self) -> str:
        """Content address of the whole plan (used as the manifest key).

        ``content_digest(self.payload())``, hashed from the shards'
        canonical texts rather than from a second walk of the payload;
        computed once per instance, like :attr:`ShardSpec.digest`.
        """
        return memoized_digest(self, "_digest", self._canonical_payload)

    def schemes(self) -> Tuple[SchemeSpec, ...]:
        """The scheme specs shared by every shard."""
        return self.shards[0].schemes

    def shards_for_rate(self, rate: float) -> List[ShardSpec]:
        """The shards covering one search rate, in trial order."""
        return [shard for shard in self.shards if shard.search_rate == rate]

    def _head(self) -> Dict[str, Any]:
        return {
            "schema": PLAN_SCHEMA,
            "search_rates": list(self.search_rates),
            "num_trials": self.num_trials,
            "base_seed": self.base_seed,
        }

    def _canonical_payload(self) -> str:
        shards = ",".join(shard.canonical_spec() for shard in self.shards)
        return canonical_json(self._head(), {"shards": f"[{shards}]"})

    def payload(self) -> Dict[str, Any]:
        """JSON-serializable manifest of the plan (shards by reference)."""
        return {
            **self._head(),
            "shards": [shard.spec_payload() for shard in self.shards],
        }


def plan_from_payload(payload: Mapping[str, Any]) -> CampaignPlan:
    """Rebuild a plan from :meth:`CampaignPlan.payload` output."""
    if payload.get("schema") != PLAN_SCHEMA:
        raise ConfigurationError(f"unsupported plan schema {payload.get('schema')!r}")
    return CampaignPlan(
        shards=tuple(ShardSpec.from_payload(entry) for entry in payload["shards"]),
        search_rates=tuple(float(rate) for rate in payload["search_rates"]),
        num_trials=int(payload["num_trials"]),
        base_seed=int(payload["base_seed"]),
    )


def plan_effectiveness_sweep(
    config: ScenarioConfig,
    schemes: Sequence[SchemeSpec],
    search_rates: Sequence[float],
    num_trials: int,
    base_seed: int = 0,
    shard_trials: Optional[int] = None,
) -> CampaignPlan:
    """Shard an effectiveness sweep: every rate, trials in blocks.

    ``shard_trials`` bounds the trial range per shard (default
    :data:`DEFAULT_SHARD_TRIALS`); the final shard of each rate may be
    smaller. Validation mirrors
    :func:`repro.sim.sweep.effectiveness_sweep`, so a plan that builds is
    a sweep that runs, with one exception: a plan rejects a duplicate
    rate, since its shards would repeat. ``effectiveness_sweep(store=...)``
    plans the distinct rates and repeats the series of a rate listed
    twice.
    """
    rates = [float(rate) for rate in search_rates]
    if not rates:
        raise ConfigurationError("need at least one search rate")
    if any(not 0.0 < rate <= 1.0 for rate in rates):
        raise ConfigurationError(f"search rates must be in (0, 1], got {rates}")
    if len(set(rates)) != len(rates):
        raise ConfigurationError(f"duplicate search rates: {rates}")
    if num_trials < 1:
        raise ConfigurationError(f"num_trials must be >= 1, got {num_trials}")
    specs = tuple(schemes)
    if not specs:
        raise ConfigurationError("need at least one scheme spec")
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate scheme names in specs: {names}")
    size = DEFAULT_SHARD_TRIALS if shard_trials is None else int(shard_trials)
    if size < 1:
        raise ConfigurationError(f"shard_trials must be >= 1, got {shard_trials}")
    shards: List[ShardSpec] = []
    for rate in rates:
        for start in range(0, num_trials, size):
            shards.append(
                ShardSpec(
                    config=config,
                    schemes=specs,
                    search_rate=rate,
                    base_seed=base_seed,
                    trial_start=start,
                    trial_count=min(size, num_trials - start),
                )
            )
    return CampaignPlan(
        shards=tuple(shards),
        search_rates=tuple(rates),
        num_trials=num_trials,
        base_seed=base_seed,
    )

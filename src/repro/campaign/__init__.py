"""Checkpointed, fault-tolerant sweep orchestration.

Long Monte Carlo campaigns (figure grids, ablations, scheme comparisons)
decompose into deterministic **shards** — scenario config + scheme specs
+ search rate + trial index range — executed by a supervising scheduler
with per-shard retry/backoff/timeout and graceful degradation, persisted
one atomic JSON artifact per shard in a content-addressed store, and
reassembled into bit-identical aggregates. An interrupted campaign
resumes by re-running the same plan: completed shards are skipped.

Typical use::

    from repro.campaign import (
        ShardStore, assemble_effectiveness_sweep,
        plan_effectiveness_sweep, run_campaign, standard_scheme_specs,
    )

    plan = plan_effectiveness_sweep(
        config, standard_scheme_specs(), rates, num_trials=100, base_seed=7
    )
    store = ShardStore("results/campaign")
    run_campaign(plan, store, max_workers=8)   # Ctrl-C safe: rerun to resume
    sweep = assemble_effectiveness_sweep(plan, store)

Or end-to-end through the sweep adapter / CLI::

    effectiveness_sweep(scenario, specs, rates, 100, store="results/campaign")
    # repro campaign run --store results/campaign --trials 100

Campaigns also execute **coordinator-free across N workers**: shards are
claimed through atomic lease files in the store (no scheduler process),
crashed workers' leases expire and their shards are reassigned, and the
assembled aggregate stays byte-identical to a single-supervisor run::

    launch_campaign(plan, store, num_workers=4)   # N local processes
    # repro campaign launch --store DIR --workers 4 --trials 100
    # repro campaign worker --store DIR           # one worker, any host

See ``docs/campaigns.md`` for the shard model, store layout, resume
semantics, and fault-injection knobs.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_namespace

if TYPE_CHECKING:
    from repro.campaign.assemble import assemble_effectiveness_sweep
    from repro.campaign.distributed import (
        LaunchReport,
        launch_campaign,
        worker_attribution,
    )
    from repro.campaign.health import (
        DEFAULT_STALL_FACTOR,
        CampaignHealth,
        HostHealth,
        ShardHealth,
        campaign_health,
        render_campaign_health,
    )
    from repro.campaign.plan import (
        DEFAULT_SHARD_TRIALS,
        CampaignPlan,
        ShardSpec,
        plan_effectiveness_sweep,
        plan_from_payload,
        standard_scheme_specs,
    )
    from repro.campaign.scheduler import (
        CampaignReport,
        CampaignStatus,
        FaultInjector,
        InjectedFault,
        campaign_status,
        run_campaign,
    )
    from repro.campaign.lease import (
        DEFAULT_LEASE_TTL_S,
        LEASE_SCHEMA,
        LeaseManager,
        LeaseRecord,
        backoff_delay,
        lease_expired,
    )
    from repro.campaign.store import HEARTBEAT_SCHEMA, ShardStore
    from repro.campaign.worker import WorkerReport, publish_shard, run_worker
    from repro.exceptions import CampaignAborted, CampaignError, ShardExecutionError

__all__ = [
    "DEFAULT_SHARD_TRIALS",
    "CampaignPlan",
    "ShardSpec",
    "plan_effectiveness_sweep",
    "plan_from_payload",
    "standard_scheme_specs",
    "CampaignReport",
    "CampaignStatus",
    "FaultInjector",
    "InjectedFault",
    "campaign_status",
    "run_campaign",
    "ShardStore",
    "HEARTBEAT_SCHEMA",
    "CampaignHealth",
    "HostHealth",
    "ShardHealth",
    "campaign_health",
    "render_campaign_health",
    "DEFAULT_STALL_FACTOR",
    "assemble_effectiveness_sweep",
    "CampaignAborted",
    "CampaignError",
    "ShardExecutionError",
    "DEFAULT_LEASE_TTL_S",
    "LEASE_SCHEMA",
    "LeaseManager",
    "LeaseRecord",
    "backoff_delay",
    "lease_expired",
    "WorkerReport",
    "publish_shard",
    "run_worker",
    "LaunchReport",
    "launch_campaign",
    "worker_attribution",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.campaign.assemble": ("assemble_effectiveness_sweep",),
        "repro.campaign.distributed": (
            "LaunchReport",
            "launch_campaign",
            "worker_attribution",
        ),
        "repro.campaign.health": (
            "DEFAULT_STALL_FACTOR",
            "CampaignHealth",
            "HostHealth",
            "ShardHealth",
            "campaign_health",
            "render_campaign_health",
        ),
        "repro.campaign.plan": (
            "DEFAULT_SHARD_TRIALS",
            "CampaignPlan",
            "ShardSpec",
            "plan_effectiveness_sweep",
            "plan_from_payload",
            "standard_scheme_specs",
        ),
        "repro.campaign.scheduler": (
            "CampaignReport",
            "CampaignStatus",
            "FaultInjector",
            "InjectedFault",
            "campaign_status",
            "run_campaign",
        ),
        "repro.campaign.lease": (
            "DEFAULT_LEASE_TTL_S",
            "LEASE_SCHEMA",
            "LeaseManager",
            "LeaseRecord",
            "backoff_delay",
            "lease_expired",
        ),
        "repro.campaign.store": ("HEARTBEAT_SCHEMA", "ShardStore"),
        "repro.campaign.worker": ("WorkerReport", "publish_shard", "run_worker"),
        "repro.exceptions": (
            "CampaignAborted",
            "CampaignError",
            "ShardExecutionError",
        ),
    },
)

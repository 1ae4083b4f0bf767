"""The benchmark's workloads: inputs from a seed, one timed call, a check.

Each workload drives one real ``repro`` entry point with the settings of
the command behind it. Its inputs come only from the benchmark seed:
:meth:`Workload.items` turns the seed into per-call base seeds, and the
program receives nothing else. An *operation* is the unit the throughput
counts (a trial at one rate, an admitted UE, a plan shard); an operation
that fails its output check counts as failed.

Nothing here imports ``repro`` at module level, so a set-up probe times
the program's imports itself.
"""

from __future__ import annotations

import hashlib
import math
import random
import shutil
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

__all__ = ["WORKLOADS", "Workload", "shape_failures"]


class Workload:
    """One named workload; subclasses fill in the hooks."""

    name = ""
    #: what one operation is, for the printed alias of ``ops_per_s``
    op = "ops"
    alias = "ops_per_s"
    call_alias = "seconds per call"
    #: calls repeated under tracing; fixed, so per-layer counts compare
    traced_calls = 2
    #: fewest timed calls per run, whatever ``--seconds`` says
    min_calls = 5
    #: processes the workload keeps busy; the reference kernel runs on as many
    processes = 1
    #: whether every operation is a campaign shard execution
    executes_shards = False

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir

    def imports(self) -> None:
        """Import ``repro.cli`` and the workload's entry module."""
        import repro.cli  # noqa: F401

    def build(self, seed: int) -> None:
        """Build the scenario or plan the command builds before it runs."""

    def items(self, seed: int) -> Iterator[int]:
        """Base seeds of the timed calls, as many as the run asks for."""
        rng = random.Random(seed)
        while True:
            yield rng.randrange(1, 2**31)

    def prepare(self, seed: int) -> None:
        """Untimed work before timing starts (warm-up, a store to resume)."""

    def run(self, item: int) -> Tuple[int, Any]:
        """The timed call: ``(operations, raw output)``."""
        raise NotImplementedError

    def fingerprint(self, item: int, raw: Any) -> Any:
        """A comparable digest of one call's output (taken untimed)."""
        raise NotImplementedError

    def check(self, item: int, fingerprint: Any) -> bool:
        """Whether one call's output is correct."""
        raise NotImplementedError

    def check_run(self, fingerprints: List[Any]) -> bool:
        """Checks that need every call of the run (pooled statistics)."""
        return True


def shape_failures(mean_loss: Dict[str, List[float]]) -> List[str]:
    """Figure 6's shape, on pooled per-rate mean losses (dB).

    Losses are finite and non-negative, and more search budget cannot
    hurt much: every scheme's loss at the highest rate is at most 1 dB
    above its loss at the lowest rate. Claims that Proposed beats the
    baselines need far more trials than one run pools; they stay with
    the statistical golden gate (``benchmarks/check_stats.py``).
    """
    failures = []
    for scheme, series in mean_loss.items():
        if not all(math.isfinite(v) and v >= 0.0 for v in series):
            failures.append(f"{scheme}: loss not finite and >= 0")
        elif series[-1] > series[0] + 1.0:
            failures.append(f"{scheme}: loss rises with the search rate")
    return failures


class Fig6Sweep(Workload):
    """``repro run fig6`` with the command's default execution settings."""

    name = "fig6-sweep"
    op = "trials"
    alias = "trials_per_s"
    RATES = (0.05, 0.10, 0.20, 0.30)
    # One trial per call keeps calls near a second, so the per-call
    # median sees many samples in a run.
    TRIALS = 1
    traced_calls = 4
    # The pooled shape check needs about eight trials per rate to be
    # safe on any seed (bootstrap false-failure rate below 1e-3).
    min_calls = 8

    def imports(self) -> None:
        super().imports()
        import repro.experiments.fig6_multipath_effectiveness  # noqa: F401

    def build(self, seed: int) -> None:
        from repro.experiments.common import build_scenario
        from repro.sim.config import ChannelKind

        build_scenario(ChannelKind.MULTIPATH).context()

    def run(self, item: int) -> Tuple[int, Any]:
        from repro.experiments.fig6_multipath_effectiveness import run_fig6

        result = run_fig6(num_trials=self.TRIALS, search_rates=self.RATES, base_seed=item)
        return self.TRIALS * len(self.RATES), result

    def fingerprint(self, item: int, raw: Any) -> Any:
        return {"table": raw.table, "mean_loss_db": raw.data["mean_loss_db"]}

    def check(self, item: int, fingerprint: Any) -> bool:
        # The batched engine is a separate code path whose seeded output
        # is byte-identical to the serial run by contract.
        from repro.experiments.fig6_multipath_effectiveness import run_fig6

        reference = run_fig6(
            num_trials=self.TRIALS, search_rates=self.RATES, base_seed=item, batch_trials=32
        )
        return fingerprint == self.fingerprint(item, reference)

    def check_run(self, fingerprints: List[Any]) -> bool:
        pooled = {
            scheme: [
                sum(fp["mean_loss_db"][scheme][i] for fp in fingerprints) / len(fingerprints)
                for i in range(len(self.RATES))
            ]
            for scheme in fingerprints[0]["mean_loss_db"]
        }
        return not shape_failures(pooled)


class CellScan(Workload):
    """``repro cell serve --openmetrics FILE`` with the CLI's default cell."""

    name = "cell-scan"
    op = "UEs"
    alias = "ues_per_s"
    traced_calls = 4

    def imports(self) -> None:
        super().imports()
        import repro.cell.service  # noqa: F401

    def serve_args(self, item: int):
        """The CLI's own defaults for ``repro cell serve --seed ITEM``."""
        import repro.cli

        return repro.cli.build_parser().parse_args(["cell", "serve", "--seed", str(item)])

    def config(self, item: int):
        import repro.cli

        return repro.cli._cell_config_from_args(self.serve_args(item))

    def build(self, seed: int) -> None:
        from repro.cell import plan_cell
        from repro.sim.scenario import Scenario

        config = self.config(seed)
        plan_cell(config)
        Scenario(config.scenario).context()

    def prepare(self, seed: int) -> None:
        # The first full-size call in a process pays one-off costs (first
        # touch of the stacked channel buffers) that would otherwise land
        # on whichever call happens to run first.
        self.run(random.Random(~seed).randrange(1, 2**31))

    def run(self, item: int) -> Tuple[int, Any]:
        from repro.cell.service import serve_cell

        import repro.cli

        args = self.serve_args(item)
        report = serve_cell(
            repro.cli._cell_config_from_args(args),
            batch_users=args.batch_users,
            openmetrics_path=self.workdir / "cell.openmetrics",
        )
        return len(report.records), report

    def fingerprint(self, item: int, raw: Any) -> Any:
        from repro.cell.service import summary_payload
        from repro.utils.serialization import dumps

        digest = hashlib.blake2b(dumps(summary_payload(raw)).encode(), digest_size=16)
        return {
            "digest": digest.hexdigest(),
            "ue_ids": [record.ue_id for record in raw.records],
        }

    def check(self, item: int, fingerprint: Any) -> bool:
        # The serial reference path (no stacked blocks) must give the
        # byte-identical summary, and every admitted UE must be served.
        from repro.cell.scheduler import build_schedule
        from repro.cell.service import serve_cell

        config = self.config(item)
        reference = serve_cell(config, batch_users=None)
        admitted = [entry.ue_id for entry in build_schedule(config).entries]
        return (
            fingerprint == self.fingerprint(item, reference)
            and sorted(fingerprint["ue_ids"]) == sorted(admitted)
        )


class _Campaign(Workload):
    """Shared plan and check of the two ``repro campaign launch`` passes."""

    op = "shards"
    processes = 2
    RATES = (0.05, 0.10, 0.20, 0.30)
    TRIALS = 16
    WORKERS = 2

    def imports(self) -> None:
        super().imports()
        import repro.campaign.distributed  # noqa: F401

    def plan(self, item: int):
        from repro.campaign import plan_effectiveness_sweep, standard_scheme_specs
        from repro.sim.config import ChannelKind, ScenarioConfig

        specs = [s for s in standard_scheme_specs() if s.name in ("Random", "Scan")]
        return plan_effectiveness_sweep(
            ScenarioConfig(channel=ChannelKind.MULTIPATH),
            specs,
            self.RATES,
            self.TRIALS,
            base_seed=item,
            shard_trials=1,
        )

    def build(self, seed: int) -> None:
        self.plan(seed)

    def launch(self, plan, store_dir: Path):
        from repro.campaign import ShardStore, launch_campaign

        return launch_campaign(plan, ShardStore(store_dir), num_workers=self.WORKERS)

    def assembled(self, plan, store_dir: Path) -> Any:
        from repro.campaign import ShardStore, assemble_effectiveness_sweep, campaign_status

        store = ShardStore(store_dir)
        status = campaign_status(plan, store)
        if status.failed or status.pending:
            return None
        return assemble_effectiveness_sweep(plan, store).losses

    def direct(self, item: int) -> Any:
        """The same plan as one in-process sweep, no store involved."""
        from repro.sim.scenario import Scenario
        from repro.sim.sweep import effectiveness_sweep

        plan = self.plan(item)
        schemes = {spec.name: spec.build_factory() for spec in plan.schemes()}
        sweep = effectiveness_sweep(
            Scenario(plan.shards[0].config), schemes, self.RATES, self.TRIALS, base_seed=item
        )
        return sweep.losses


class CampaignLaunch(_Campaign):
    """``repro campaign launch`` on a fresh store: every shard executes."""

    name = "campaign-launch"
    alias = "shards_per_s"
    executes_shards = True
    # A launch returns on the watch loop's 0.2 s tick; more calls keep
    # that step from moving the median.
    min_calls = 8

    def __init__(self, workdir: Path) -> None:
        super().__init__(workdir)
        self._calls = 0

    def run(self, item: int) -> Tuple[int, Any]:
        self._calls += 1
        store_dir = self.workdir / f"store-{self._calls}"
        plan = self.plan(item)
        report = self.launch(plan, store_dir)
        return len(plan.shards), (plan, store_dir, report)

    def fingerprint(self, item: int, raw: Any) -> Any:
        plan, store_dir, report = raw
        losses = self.assembled(plan, store_dir)
        shutil.rmtree(store_dir, ignore_errors=True)
        return {"exit_codes": list(report.exit_codes), "losses": losses}

    def check(self, item: int, fingerprint: Any) -> bool:
        return (
            fingerprint["losses"] is not None
            and all(code == 0 for code in fingerprint["exit_codes"])
            and fingerprint["losses"] == self.direct(item)
        )


class CampaignResume(_Campaign):
    """``repro campaign launch`` again over a completed store.

    The resume pass reads every artifact and executes nothing, so it
    prices store reads and worker start-up; the fresh launch that fills
    the store runs untimed before timing starts.
    """

    name = "campaign-resume"
    alias = "resumed_shards_per_s"
    call_alias = "resume_s"
    TRIALS = 32
    traced_calls = 4

    def items(self, seed: int) -> Iterator[int]:
        base = next(super().items(seed))
        while True:
            yield base

    def prepare(self, seed: int) -> None:
        self.store_dir = self.workdir / "store"
        item = next(self.items(seed))
        self.launch(self.plan(item), self.store_dir)
        self._artifacts = self._snapshot()
        # Computed at the first check, after timing: an in-process sweep
        # here would warm caches the forked workers then inherit.
        self._expected: Any = None

    def _snapshot(self) -> List[Tuple[str, int, int]]:
        return sorted(
            (path.name, path.stat().st_size, path.stat().st_mtime_ns)
            for path in (self.store_dir / "shards").glob("*.json")
        )

    def run(self, item: int) -> Tuple[int, Any]:
        plan = self.plan(item)
        report = self.launch(plan, self.store_dir)
        return len(plan.shards), (plan, report)

    def fingerprint(self, item: int, raw: Any) -> Any:
        plan, report = raw
        return {
            "exit_codes": list(report.exit_codes),
            "complete": report.complete,
            "untouched": self._snapshot() == self._artifacts,
            "losses": self.assembled(plan, self.store_dir),
        }

    def check(self, item: int, fingerprint: Any) -> bool:
        if self._expected is None:
            self._expected = self.direct(item)
        return (
            fingerprint["complete"]
            and fingerprint["untouched"]
            and all(code == 0 for code in fingerprint["exit_codes"])
            and fingerprint["losses"] == self._expected
        )


WORKLOADS = {
    cls.name: cls for cls in (Fig6Sweep, CellScan, CampaignLaunch, CampaignResume)
}

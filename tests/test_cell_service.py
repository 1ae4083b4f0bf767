"""Tests for cell shards, the store integration, and the serve surface."""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle

import numpy as np
import pytest

from repro.campaign.scheduler import FaultInjector
from repro.campaign.store import ShardStore
from repro.cell.config import CellConfig
from repro.cell.metrics import UERecord, merge_records, summarize_records
from repro.cell.service import render_cell_report, serve_cell, summary_payload
from repro.cell.shards import (
    CELL_PLAN_SCHEMA,
    CELL_SHARD_KIND,
    plan_cell,
)
from repro.exceptions import ConfigurationError, ShardExecutionError, ValidationError
from repro.obs.openmetrics import parse_openmetrics
from repro.sim.config import ScenarioConfig
from repro.sim.parallel import SchemeSpec
from repro.utils.serialization import content_digest, dump


def small_cell(**overrides) -> CellConfig:
    defaults = dict(
        scenario=ScenarioConfig(
            tx_shape=(2, 2), rx_shape=(2, 4), rx_beam_grid=(3, 3), fading_blocks=4
        ),
        num_users=24,
        arrival_rate_hz=5000.0,
        search_rate=0.25,
        probe_budget_per_frame=16,
        interference_coupling=0.2,
    )
    defaults.update(overrides)
    return CellConfig(**defaults)


class TestPlanAndShards:
    def test_plan_partitions_all_ues(self):
        plan = plan_cell(small_cell(), shard_ues=10)
        assert [s.ue_start for s in plan.shards] == [0, 10, 20]
        assert [s.ue_count for s in plan.shards] == [10, 10, 4]
        assert plan.num_ues == 24

    def test_digest_stable_and_spec_sensitive(self):
        a = plan_cell(small_cell(), shard_ues=10)
        b = plan_cell(small_cell(), shard_ues=10)
        assert a.digest == b.digest
        c = plan_cell(small_cell(base_seed=9), shard_ues=10)
        assert a.digest != c.digest
        assert len({s.digest for s in a.shards}) == len(a.shards)

    def test_digests_memoized_like_campaign_addresses(self):
        plan = plan_cell(small_cell(), shard_ues=10)
        config_payload = {"schema": CELL_PLAN_SCHEMA, "config": plan.config.to_dict()}
        before = repr(plan), hash(plan)
        for _ in range(2):  # first access computes, second reads the memo
            assert plan.digest == content_digest(plan.payload())
            assert plan.config_digest == content_digest(config_payload)
            for shard in plan.shards:
                assert shard.digest == content_digest(shard.spec_payload())
        assert (repr(plan), hash(plan)) == before
        assert pickle.loads(pickle.dumps(plan)).digest == plan.digest
        moved = dataclasses.replace(plan.shards[0], ue_start=1)
        assert moved.digest == content_digest(moved.spec_payload())
        assert moved.digest != plan.shards[0].digest

    def test_plan_respects_duration_truncation(self):
        config = small_cell(num_users=200, arrival_rate_hz=1000.0, duration_s=0.05)
        plan = plan_cell(config, shard_ues=16)
        assert plan.num_ues < 200

    def test_shard_records_match_full_run(self):
        config = small_cell()
        plan = plan_cell(config, shard_ues=10)
        full = serve_cell(config, batch_users=8, shard_ues=10).records
        middle = plan.shards[1].execute(batch_trials=8)
        assert middle == full[10:20]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            plan_cell(small_cell(), shard_ues=0)


class TestStoreIntegration:
    """A serve with a store runs its shards under the campaign lease loop."""

    def test_resume_serves_from_artifacts(self, tmp_path):
        config = small_cell()
        store = ShardStore(tmp_path / "store")
        first = serve_cell(config, store=store, batch_users=8, shard_ues=10)
        second = serve_cell(config, store=store, batch_users=8, shard_ues=10)
        assert second.records == first.records
        assert (first.cached_shards, second.cached_shards) == (0, 3)

    def test_artifacts_survive_gc(self, tmp_path):
        config = small_cell()
        plan = plan_cell(config, shard_ues=10)
        store = ShardStore(tmp_path / "store")
        serve_cell(config, store=store, batch_users=8, shard_ues=10)
        # The serve recorded the plan manifest, which keeps its artifacts.
        assert store.gc() == []
        for shard in plan.shards:
            assert store.get(shard) is not None
            assert store.classify(shard) == "done"

    def test_unreferenced_artifacts_collected(self, tmp_path):
        config = small_cell()
        plan = plan_cell(config, shard_ues=10)
        store = ShardStore(tmp_path / "store")
        serve_cell(config, store=store, batch_users=8, shard_ues=10)
        # Without its manifest every cell artifact (and its heartbeat
        # litter) is orphaned.
        store.manifest_path(plan.digest).unlink()
        removed = store.gc()
        removed_artifacts = [p for p in removed if p.parent == store.shard_dir]
        assert len(removed_artifacts) == len(plan.shards)
        for shard in plan.shards:
            assert store.get(shard) is None

    def test_heartbeats_written(self, tmp_path):
        config = small_cell()
        plan = plan_cell(config, shard_ues=10)
        store = ShardStore(tmp_path / "store")
        serve_cell(config, store=store, batch_users=8, shard_ues=10)
        beats = store.read_heartbeats(plan.digest)
        assert len(beats) == len(plan.shards)
        assert all(beat["status"] == "done" for beat in beats.values())
        assert all(isinstance(beat.get("host"), str) for beat in beats.values())

    def test_done_heartbeats_name_their_worker(self, tmp_path):
        config = small_cell()
        plan = plan_cell(config, shard_ues=8)
        store = ShardStore(tmp_path / "store")
        serve_cell(config, store=store, batch_users=8, shard_ues=8, workers=2)
        beats = store.read_heartbeats(plan.digest)
        assert {beat["status"] for beat in beats.values()} == {"done"}
        workers = {beat.get("worker") for beat in beats.values()}
        assert workers and all(isinstance(worker, str) for worker in workers)
        assert all(
            worker in ("w0", "w1") or worker.startswith("supervisor-")
            for worker in workers
        )
        assert [beat["trial_count"] for beat in beats.values()] == [8, 8, 8]

    def test_artifact_bytes_unchanged(self, tmp_path):
        """A cell artifact is the shard spec plus its records, as before."""
        config = small_cell()
        plan = plan_cell(config, shard_ues=10)
        store = ShardStore(tmp_path / "store")
        report = serve_cell(config, store=store, batch_users=8, shard_ues=10)
        shard = plan.shards[1]
        payload = {
            "kind": CELL_SHARD_KIND,
            "digest": shard.digest,
            "spec": shard.spec_payload(),
            "result": {
                "records": [record.to_payload() for record in report.records[10:20]]
            },
        }
        dump(payload, tmp_path / "expected.json")
        assert store.shard_path(shard.digest).read_bytes() == (
            tmp_path / "expected.json"
        ).read_bytes()

    def test_crashed_shard_retries_once_with_identical_bytes(
        self, tmp_path, monkeypatch
    ):
        import repro.campaign.scheduler as scheduler

        run_campaign = scheduler.run_campaign
        reports = []

        def with_faults(*args, **kwargs):
            injector = FaultInjector(crash_shards={1: 1})
            reports.append(run_campaign(*args, fault_injector=injector, **kwargs))
            return reports[-1]

        monkeypatch.setattr(scheduler, "run_campaign", with_faults)
        config = small_cell()
        store = ShardStore(tmp_path / "store")
        # The injector acts in the calling process only.
        serve_cell(
            config, store=store, batch_users=8, shard_ues=8, workers=1,
            summary_path=tmp_path / "faulty.json",
        )
        assert [(r.executed, r.retries) for r in reports] == [(3, 1)]
        serve_cell(config, batch_users=8, summary_path=tmp_path / "reference.json")
        assert (tmp_path / "faulty.json").read_bytes() == (
            tmp_path / "reference.json"
        ).read_bytes()


class TestWorkerPool:
    def test_worker_pool_bit_identical(self, tmp_path):
        """``workers=2`` runs launched lease workers, with a store or on a
        temporary one, and writes the in-process serial serve's bytes."""
        config = small_cell()
        names = ("serial", "bare", "stored")
        paths = {name: tmp_path / f"{name}.json" for name in names}
        serve_cell(config, batch_users=None, workers=1, summary_path=paths["serial"])
        serve_cell(
            config, batch_users=8, shard_ues=8, workers=2, summary_path=paths["bare"]
        )
        store = ShardStore(tmp_path / "store")
        serve_cell(
            config, store=store, batch_users=8, shard_ues=8, workers=2,
            summary_path=paths["stored"],
        )
        assert len(list(store.shard_dir.glob("*.json"))) == 3
        blobs = {name: path.read_bytes() for name, path in paths.items()}
        assert blobs["bare"] == blobs["serial"]
        assert blobs["stored"] == blobs["serial"]


def _usable_cpus(monkeypatch, count: int) -> None:
    """Make the serve see ``count`` usable CPUs."""
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(count)), raising=False
    )


def _count_launches(monkeypatch) -> list:
    """Record the worker count of every lease-worker launch."""
    import repro.campaign.scheduler as scheduler

    launches = []
    real = scheduler.launch_campaign

    def counting(*args, **kwargs):
        launches.append(kwargs["num_workers"])
        return real(*args, **kwargs)

    monkeypatch.setattr(scheduler, "launch_campaign", counting)
    return launches


HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


class TestDefaultWorkers:
    """``workers=None`` runs one lease worker per usable CPU, capped at
    the plan's shard count, through the same lease loop as every serve."""

    def test_summary_byte_identical_across_every_serve(self, tmp_path):
        config = small_cell()
        store = ShardStore(tmp_path / "store")
        runs = {
            "default": {},
            "one": {"workers": 1},
            "two": {"workers": 2},
            "stored": {"store": store},
            "resumed": {"store": store},
        }
        cached = {}
        for name, options in runs.items():
            report = serve_cell(
                config, batch_users=8, shard_ues=8,
                summary_path=tmp_path / f"{name}.json", **options,
            )
            cached[name] = report.cached_shards
        assert (cached["stored"], cached["resumed"]) == (0, 3)
        blobs = {name: (tmp_path / f"{name}.json").read_bytes() for name in runs}
        assert len(set(blobs.values())) == 1

    def test_one_usable_cpu_forks_no_worker(self, monkeypatch, tmp_path):
        _usable_cpus(monkeypatch, 1)
        launches = _count_launches(monkeypatch)
        report = serve_cell(small_cell(), batch_users=8, shard_ues=8)
        assert launches == []
        assert len(report.plan.shards) == 3
        assert len(report.records) == 24

    @pytest.mark.skipif(not HAS_FORK, reason="requires the fork start method")
    @pytest.mark.parametrize("shard_ues, workers", [(8, 3), (12, 2)])
    def test_workers_follow_usable_cpus_up_to_the_shards(
        self, monkeypatch, shard_ues, workers
    ):
        _usable_cpus(monkeypatch, 3)
        launches = _count_launches(monkeypatch)
        report = serve_cell(small_cell(), batch_users=8, shard_ues=shard_ues)
        assert launches == [min(3, len(report.plan.shards))] == [workers]

    @pytest.mark.skipif(not HAS_FORK, reason="requires the fork start method")
    def test_failing_default_serve_leaves_no_process(self, monkeypatch):
        from repro.cell.shards import CellShard

        def broken(self, *args, **kwargs):
            raise RuntimeError("shard exploded")

        _usable_cpus(monkeypatch, 2)
        launches = _count_launches(monkeypatch)
        monkeypatch.setattr(CellShard, "execute", broken)
        with pytest.raises(ShardExecutionError, match="3 shard"):
            serve_cell(small_cell(), batch_users=8, shard_ues=8)
        assert launches == [2]
        assert multiprocessing.active_children() == []

    def test_bad_scheme_parameter_raises_once_in_the_caller(self, monkeypatch):
        """The spec builds its scheme, so the scheme's own error surfaces
        in the caller, before any plan, store or worker exists."""
        _usable_cpus(monkeypatch, 2)
        launches = _count_launches(monkeypatch)
        with pytest.raises(ValidationError, match="measurements_per_slot"):
            serve_cell(
                small_cell(
                    num_users=12,
                    scheme=SchemeSpec.of("Proposed", measurements_per_slot=0),
                ),
                shard_ues=4,
            )
        assert launches == []


class TestServe:
    def test_summary_byte_identical_across_runs_and_modes(self, tmp_path):
        config = small_cell()
        paths = [tmp_path / name for name in ("a.json", "b.json", "c.json", "d.json")]
        serve_cell(config, batch_users=8, summary_path=paths[0])
        serve_cell(config, batch_users=8, summary_path=paths[1])
        serve_cell(config, batch_users=None, summary_path=paths[2])
        # Shard size is an execution knob: it must not leak into the bytes.
        serve_cell(config, batch_users=8, shard_ues=5, summary_path=paths[3])
        blobs = [path.read_bytes() for path in paths]
        assert blobs[0] == blobs[1] == blobs[2] == blobs[3]

    def test_openmetrics_parses_and_counts(self, tmp_path):
        config = small_cell()
        target = tmp_path / "cell.prom"
        report = serve_cell(config, batch_users=8, openmetrics_path=target)
        families = parse_openmetrics(target.read_text())
        assert "repro_cell_ues_done" in families
        samples = {
            name: value
            for name, _, value in families["repro_cell_ues_done"]["samples"]
        }
        assert samples["repro_cell_ues_done_total"] == float(len(report.records))
        assert "repro_cell_users" in families
        assert "repro_cell_serve_seconds" in families

    def test_summary_distributions(self):
        config = small_cell()
        report = serve_cell(config, batch_users=8)
        summary = report.summary
        assert summary["num_ues"] == 24
        for key in ("latency_ms", "queue_wait_ms", "snr_loss_db", "overhead_fraction"):
            dist = summary["distributions"][key]
            assert dist["min"] <= dist["p50"] <= dist["p90"] <= dist["p99"] <= dist["max"]
        assert summary["throughput_ues_per_s"] > 0
        rendered = render_cell_report(report)
        assert "latency (ms)" in rendered
        assert report.plan.digest in rendered

    def test_negative_batch_users_rejected_before_scheduling(self, monkeypatch):
        import repro.cell.scheduler as scheduler
        from repro.cell.shards import _schedule_for

        def no_schedule(*args):
            raise AssertionError("the schedule must not be built")

        monkeypatch.setattr(scheduler, "schedule_airtime", no_schedule)
        _schedule_for.cache_clear()
        with pytest.raises(ConfigurationError, match=r"^batch_users must be >= 0, got -4$"):
            serve_cell(small_cell(), batch_users=-4)

    def test_one_serve_builds_the_schedule_once(self, monkeypatch):
        """Planning and summarizing share one schedule (every
        ``build_schedule`` call runs ``schedule_airtime`` once)."""
        import repro.cell.scheduler as scheduler
        from repro.cell.shards import _schedule_for

        calls = []
        real = scheduler.schedule_airtime

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(scheduler, "schedule_airtime", counting)
        _schedule_for.cache_clear()
        # The counter sees only this process: keep the shards in it too.
        serve_cell(small_cell(), batch_users=8, workers=1)
        assert len(calls) == 1

    def test_execute_ues_rejects_negative_batch_users(self):
        from repro.cell.engine import execute_ues
        from repro.sim.scenario import Scenario

        config = small_cell()
        with pytest.raises(ConfigurationError, match=r"^batch_users must be >= 0, got -1$"):
            execute_ues(Scenario(config.scenario), config, [], batch_users=-1)

    def test_summary_payload_has_no_wallclock(self):
        report = serve_cell(small_cell(), batch_users=8)
        payload = summary_payload(report)
        assert set(payload) == {
            "kind",
            "digest",
            "config",
            "summary",
            "records",
        }
        assert payload["digest"] == report.plan.config_digest
        assert payload["config"] == report.config.to_dict()


class TestRecords:
    def test_record_round_trip_exact(self):
        config = small_cell()
        report = serve_cell(config, batch_users=8)
        for record in report.records[:5]:
            rebuilt = UERecord.from_payload(record.to_payload())
            assert rebuilt == record

    def test_merge_rejects_mismatch(self):
        config = small_cell()
        report = serve_cell(config, batch_users=8)
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            merge_records(report.schedule.entries[:3], [])

    def test_summarize_requires_records(self):
        config = small_cell()
        report = serve_cell(config, batch_users=8)
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            summarize_records([], report.schedule)

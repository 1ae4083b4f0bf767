"""Tests for cell shards, the store integration, and the serve surface."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.campaign.store import ShardStore
from repro.cell.config import CellConfig
from repro.cell.metrics import UERecord, merge_records, summarize_records
from repro.cell.service import render_cell_report, serve_cell, summary_payload
from repro.cell.shards import (
    CELL_PLAN_SCHEMA,
    CELL_SHARD_KIND,
    execute_shard,
    plan_cell,
    run_cell_plan,
)
from repro.exceptions import ConfigurationError
from repro.obs.openmetrics import parse_openmetrics
from repro.sim.config import ScenarioConfig
from repro.utils.serialization import content_digest, dumps


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
        full = run_cell_plan(plan, batch_users=8)
        middle = execute_shard(plan.shards[1], batch_users=8)
        assert middle == full[10:20]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            plan_cell(small_cell(), shard_ues=0)


class TestStoreIntegration:
    def test_resume_serves_from_artifacts(self, tmp_path):
        config = small_cell()
        plan = plan_cell(config, shard_ues=10)
        store = ShardStore(tmp_path / "store")
        first = run_cell_plan(plan, store=store, batch_users=8)
        seen = []
        second = run_cell_plan(
            plan,
            store=store,
            batch_users=8,
            on_shard=lambda shard, records, cached: seen.append(cached),
        )
        assert second == first
        assert seen == [True, True, True]

    def test_artifacts_survive_gc(self, tmp_path):
        config = small_cell()
        plan = plan_cell(config, shard_ues=10)
        store = ShardStore(tmp_path / "store")
        run_cell_plan(plan, store=store, batch_users=8)
        store.save_manifest(plan)
        assert store.gc() == []
        for shard in plan.shards:
            assert store.get_artifact(shard.digest, CELL_SHARD_KIND) is not None

    def test_unreferenced_artifacts_collected(self, tmp_path):
        config = small_cell()
        plan = plan_cell(config, shard_ues=10)
        store = ShardStore(tmp_path / "store")
        run_cell_plan(plan, store=store, batch_users=8)
        # No manifest saved: every cell artifact (and its heartbeat
        # litter) is orphaned.
        removed = store.gc()
        removed_artifacts = [p for p in removed if p.parent == store.shard_dir]
        assert len(removed_artifacts) == len(plan.shards)
        for shard in plan.shards:
            assert store.get_artifact(shard.digest, CELL_SHARD_KIND) is None

    def test_heartbeats_written(self, tmp_path):
        config = small_cell()
        plan = plan_cell(config, shard_ues=10)
        store = ShardStore(tmp_path / "store")
        run_cell_plan(plan, store=store, batch_users=8)
        beats = store.read_heartbeats(plan.digest)
        assert len(beats) == len(plan.shards)
        assert all(beat["status"] == "done" for beat in beats.values())
        assert all(isinstance(beat.get("host"), str) for beat in beats.values())


class TestWorkerPool:
    def test_worker_pool_bit_identical(self):
        config = small_cell()
        plan = plan_cell(config, shard_ues=8)
        serial = run_cell_plan(plan, batch_users=8)
        pooled = run_cell_plan(plan, batch_users=8, workers=2)
        assert pooled == serial


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
        import repro.cell.service as service

        def no_schedule(config):
            raise AssertionError("the schedule must not be built")

        monkeypatch.setattr(service, "build_schedule", no_schedule)
        with pytest.raises(ConfigurationError, match=r"^batch_users must be >= 0, got -4$"):
            serve_cell(small_cell(), batch_users=-4)

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

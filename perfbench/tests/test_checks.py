"""Output checks, ratio arithmetic and the benchmark's declared metrics."""

import copy
import json
from collections import Counter
from pathlib import Path

import pytest

import layers
import run
from tracer import Span
from workloads import WORKLOADS, CampaignLaunch, CellScan, Fig6Sweep, shape_failures

ROOT = Path(__file__).resolve().parents[2]


def test_failed_fraction_and_useful_ratio_arithmetic():
    assert run.failed_fraction(0, 48) == 0.0
    assert run.failed_fraction(12, 48) == 0.25
    assert run.failed_fraction(0, 0) == 1.0  # nothing attempted, nothing verified
    assert layers.useful_ratio(96, 97) == pytest.approx(96 / 97)
    assert layers.useful_ratio(96, 96) == 1.0
    assert layers.useful_ratio(0, 0) == 1.0  # nothing executed, nothing wasted
    assert layers.ratio(3, 4) == 0.75
    assert layers.ratio(0, 0) == 0.0


def test_launch_lag_runs_from_the_last_write_to_the_return():
    spans = [
        Span(1, "campaign.launch", 0.0, 10.0, None, "main"),
        Span(1, "campaign.store.write", 2.0, 3.0, None, "worker-1"),
        Span(1, "campaign.store.write", 6.0, 7.0, None, "worker-2"),
        Span(2, "campaign.launch", 20.0, 21.5, None, "main"),  # resume: no writes
    ]
    metrics = layers.layer_metrics(spans, Counter(), plan_shards=0, overhead_ratio=1.0)
    assert metrics["campaign.launch.lag_s"] == pytest.approx(3.0 + 1.5)


def test_shape_check_accepts_the_figure_shape_and_rejects_a_perturbed_one():
    good = {
        "Random": [14.4, 7.2, 4.0, 3.2],
        "Scan": [16.9, 9.4, 5.9, 4.3],
        "Proposed": [10.8, 4.8, 2.1, 1.1],
    }
    assert shape_failures(good) == []
    rising = copy.deepcopy(good)
    rising["Proposed"][-1] = 12.0
    assert shape_failures(rising) == ["Proposed: loss rises with the search rate"]
    negative = copy.deepcopy(good)
    negative["Random"][1] = -0.1
    assert shape_failures(negative)
    broken = copy.deepcopy(good)
    broken["Scan"][2] = float("nan")
    assert shape_failures(broken)


class TinyFig6(Fig6Sweep):
    RATES = (0.2, 0.3)
    TRIALS = 1


def test_fig6_check_catches_a_perturbed_table(tmp_path):
    workload = TinyFig6(tmp_path)
    ops, raw = workload.run(7)
    assert ops == 2
    fingerprint = workload.fingerprint(7, raw)
    assert workload.check(7, fingerprint)
    perturbed = copy.deepcopy(fingerprint)
    perturbed["mean_loss_db"]["Proposed"][0] += 1e-12
    assert not workload.check(7, perturbed)
    assert not workload.check(8, fingerprint)  # another seed's table


class TinyCell(CellScan):
    def serve_args(self, item):
        import repro.cli

        return repro.cli.build_parser().parse_args(
            ["cell", "serve", "--seed", str(item), "--users", "24"]
        )


def test_cell_check_catches_a_perturbed_summary_and_a_missing_ue(tmp_path):
    workload = TinyCell(tmp_path)
    ops, raw = workload.run(5)
    assert ops == 24
    fingerprint = workload.fingerprint(5, raw)
    assert workload.check(5, fingerprint)
    assert not workload.check(5, dict(fingerprint, digest="0" * 32))
    assert not workload.check(5, dict(fingerprint, ue_ids=fingerprint["ue_ids"][:-1]))


class TinyLaunch(CampaignLaunch):
    RATES = (0.3,)
    TRIALS = 2


def test_campaign_check_catches_perturbed_losses_and_failed_workers(tmp_path):
    workload = TinyLaunch(tmp_path)
    ops, raw = workload.run(3)
    assert ops == 2
    fingerprint = workload.fingerprint(3, raw)
    assert workload.check(3, fingerprint)
    perturbed = copy.deepcopy(fingerprint)
    perturbed["losses"]["Scan"][0][0] += 0.5
    assert not workload.check(3, perturbed)
    assert not workload.check(3, dict(fingerprint, exit_codes=[0, 1]))
    assert not workload.check(3, dict(fingerprint, losses=None))


def test_benchmark_json_matches_the_workloads_metrics_and_targets():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    targets = json.loads((ROOT / "perfbench" / "targets.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert set(targets["aliases"]) == set(WORKLOADS)
    produced = layers.layer_metrics([], Counter(), plan_shards=0, overhead_ratio=1.0)
    declared = [m["name"] for m in spec["per_layer"]]
    assert set(declared) == set(produced) | {"startup.repro_modules", "startup.import_s"}
    assert set(targets["per_layer"]) == set(declared)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "ops_per_s", "peak_rss_mb"}

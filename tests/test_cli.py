"""Tests for the command-line interface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_options(self):
        args = build_parser().parse_args(
            ["run", "fig5", "--quick", "--trials", "3", "--seed", "7"]
        )
        assert args.experiment == "fig5"
        assert args.quick
        assert args.trials == 3
        assert args.seed == 7

    def test_align_options(self):
        args = build_parser().parse_args(["align", "--channel", "singlepath", "--rate", "0.2"])
        assert args.channel == "singlepath"
        assert args.rate == 0.2

    def test_run_trace_options(self):
        args = build_parser().parse_args(
            ["run", "fig6", "--quick", "--trace", "out.jsonl", "--progress"]
        )
        assert args.trace == "out.jsonl"
        assert args.progress

    def test_trace_summarize_parses(self):
        args = build_parser().parse_args(["trace", "summarize", "out.jsonl"])
        assert args.trace_file == "out.jsonl"

    def test_log_level_option(self):
        args = build_parser().parse_args(["--log-level", "debug", "list"])
        assert args.log_level == "debug"


class TestCommands:
    def test_list_prints_experiments(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for experiment_id in ("fig5", "fig6", "fig7", "fig8", "lowrank"):
            assert experiment_id in output

    def test_run_quick(self, capsys):
        assert main(["run", "mc-recovery", "--quick"]) == 0
        assert "rel. error" in capsys.readouterr().out

    def test_run_writes_json(self, capsys, tmp_path: Path):
        target = tmp_path / "out.json"
        assert main(["run", "mc-recovery", "--quick", "--json", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["id"] == "mc-recovery"
        assert "data" in payload

    def test_list_columns_align(self, capsys):
        from repro.experiments.registry import get, list_ids

        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        ids = list_ids()
        assert len(lines) == len(ids)
        offsets = set()
        for line, experiment_id in zip(lines, ids):
            experiment = get(experiment_id)
            assert line.startswith(experiment_id + " ")
            assert line.endswith(experiment.title)
            offsets.add(len(line) - len(experiment.title))
        assert len(offsets) == 1

    def test_run_unknown_experiment(self, capsys):
        from repro.experiments.registry import list_ids

        assert main(["run", "not-an-experiment"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: unknown experiment 'not-an-experiment'")
        assert "Traceback" not in err
        for experiment_id in list_ids():
            assert experiment_id in err

    def test_run_bad_trials_errors(self, capsys):
        assert main(["run", "fig6", "--trials", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert "Traceback" not in err

    def test_debug_log_level_keeps_traceback(self):
        # A fresh interpreter, so the debug handler does not outlive the test.
        import os
        import subprocess
        import sys

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        argv = ["--log-level", "debug", "run", "not-an-experiment"]
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
        )
        assert done.returncode == 2
        assert "Traceback" in done.stderr
        assert "repro: error: unknown experiment" in done.stderr

    def test_align(self, capsys):
        assert (
            main(
                [
                    "align",
                    "--channel",
                    "multipath",
                    "--rate",
                    "0.05",
                    "--seed",
                    "1",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        for name in ("Random", "Scan", "Proposed"):
            assert name in output

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestCampaignCli:
    def test_run_parser_options(self):
        args = build_parser().parse_args(
            [
                "campaign",
                "run",
                "--store",
                "results/camp",
                "--rates",
                "0.1,0.2",
                "--trials",
                "4",
                "--shard-trials",
                "2",
                "--workers",
                "2",
                "--retries",
                "1",
                "--quick",
            ]
        )
        assert args.campaign_command == "run"
        assert args.store == "results/camp"
        assert args.rates == "0.1,0.2"
        assert args.shard_trials == 2
        assert args.workers == 2
        assert args.retries == 1
        assert args.quick

    def test_resume_is_alias_of_run(self):
        args = build_parser().parse_args(
            ["campaign", "resume", "--store", "s", "--quick"]
        )
        assert args.campaign_command == "resume"

    def test_store_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "run"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "status"])

    def test_status_empty_store(self, capsys, tmp_path: Path):
        assert main(["campaign", "status", "--store", str(tmp_path / "none")]) == 0
        assert "no campaigns recorded" in capsys.readouterr().out

    def test_run_status_resume_gc_cycle(self, capsys, tmp_path: Path):
        store = tmp_path / "store"
        sweep_json = tmp_path / "sweep.json"
        argv = [
            "campaign",
            "run",
            "--store",
            str(store),
            "--rates",
            "0.05",
            "--trials",
            "1",
            "--shard-trials",
            "1",
            "--seed",
            "3",
            "--json",
            str(sweep_json),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "executed 1 shards, skipped 0" in out
        for name in ("Random", "Scan", "Proposed"):
            assert name in out

        assert main(["campaign", "status", "--store", str(store)]) == 0
        status_out = capsys.readouterr().out
        assert "[complete]" in status_out
        assert "1 done / 0 pending / 0 failed" in status_out

        # resume skips the completed shard and reproduces the same JSON
        first_bytes = sweep_json.read_bytes()
        argv[1] = "resume"
        assert main(argv) == 0
        assert "executed 0 shards, skipped 1" in capsys.readouterr().out
        assert sweep_json.read_bytes() == first_bytes

        payload = json.loads(sweep_json.read_text())
        assert payload["provenance"]["base_seed"] == 3

        assert main(["campaign", "gc", "--store", str(store)]) == 0
        assert "removed 0 artifact(s)" in capsys.readouterr().out


class TestTracing:
    def test_run_writes_parseable_trace(self, capsys, tmp_path: Path):
        from repro.obs import read_trace

        trace_path = tmp_path / "t.jsonl"
        assert main(["run", "fig6", "--quick", "--trials", "2", "--trace", str(trace_path)]) == 0
        records = read_trace(trace_path)
        kinds = {record["type"] for record in records}
        assert {"trace", "span", "summary"} <= kinds
        names = {record.get("name") for record in records}
        assert "trial" in names
        assert "solver.ml_covariance.iteration" in names

    def test_trace_summarize_renders_table(self, capsys, tmp_path: Path):
        trace_path = tmp_path / "t.jsonl"
        assert main(["run", "fig6", "--quick", "--trials", "2", "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace_path)]) == 0
        output = capsys.readouterr().out
        assert "Trace summary" in output
        assert "solver.ml_covariance" in output
        assert "solver convergence" in output

    def test_align_prints_solver_diagnostics(self, capsys):
        assert main(["align", "--channel", "multipath", "--rate", "0.05", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "ml-covariance solver:" in output
        assert "converged" in output

    def test_align_trace(self, capsys, tmp_path: Path):
        from repro.obs import read_trace

        trace_path = tmp_path / "align.jsonl"
        assert (
            main(
                ["align", "--channel", "multipath", "--rate", "0.05", "--trace", str(trace_path)]
            )
            == 0
        )
        assert any(record["type"] == "span" for record in read_trace(trace_path))

    def test_progress_flag(self, capsys, tmp_path: Path):
        assert main(["run", "fig6", "--quick", "--trials", "2", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "sweep:" in err


class TestDiagnosticsCli:
    def test_profile_parser_options(self):
        args = build_parser().parse_args(
            ["run", "fig6", "--profile", "--profile-mode", "sample", "--profile-top", "5"]
        )
        assert args.profile
        assert args.profile_mode == "sample"
        assert args.profile_top == 5

    def test_trace_export_parser_options(self):
        args = build_parser().parse_args(
            ["trace", "export", "t.jsonl", "--format", "chrome", "--out", "t.json"]
        )
        assert args.trace_file == "t.jsonl"
        assert args.format == "chrome"
        assert args.out == "t.json"

    def test_campaign_watch_parser_options(self):
        args = build_parser().parse_args(
            ["campaign", "watch", "--store", "s", "--once", "--interval", "0.5"]
        )
        assert args.campaign_command == "watch"
        assert args.once
        assert args.interval == 0.5

    def test_run_with_profile_prints_hotspots(self, capsys):
        assert main(["run", "fig6", "--quick", "--trials", "2", "--profile"]) == 0
        output = capsys.readouterr().out
        assert "Profile hotspots" in output
        assert "mode=cprofile" in output

    def test_run_with_openmetrics_writes_exposition(self, capsys, tmp_path: Path):
        from repro.obs import parse_openmetrics

        metrics_path = tmp_path / "m.prom"
        assert (
            main(
                ["run", "fig6", "--quick", "--trials", "2", "--openmetrics", str(metrics_path)]
            )
            == 0
        )
        families = parse_openmetrics(metrics_path.read_text(encoding="utf-8"))
        assert any(name.startswith("repro_scheme_") for name in families)

    def test_trace_export_chrome_validates(self, capsys, tmp_path: Path):
        from repro.obs import validate_chrome_trace

        trace_path = tmp_path / "t.jsonl"
        assert main(["run", "fig6", "--quick", "--trials", "2", "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        out_path = tmp_path / "t.chrome.json"
        assert main(["trace", "export", str(trace_path), "--out", str(out_path)]) == 0
        assert "trace events" in capsys.readouterr().out
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        validate_chrome_trace(payload)

    def test_trace_export_missing_file_errors(self, capsys, tmp_path: Path):
        assert main(["trace", "export", str(tmp_path / "absent.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_metrics_export_stdout(self, capsys, tmp_path: Path):
        from repro.obs import parse_openmetrics

        trace_path = tmp_path / "t.jsonl"
        assert main(["run", "fig6", "--quick", "--trials", "2", "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        assert main(["metrics", "export", str(trace_path)]) == 0
        output = capsys.readouterr().out
        families = parse_openmetrics(output)
        assert any(name.startswith("repro_") for name in families)

    def test_campaign_status_json(self, capsys, tmp_path: Path):
        store = tmp_path / "store"
        argv = [
            "campaign", "run", "--store", str(store),
            "--rates", "0.05", "--trials", "1", "--shard-trials", "1",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["campaign", "status", "--store", str(store), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        assert payload[0]["complete"] is True
        assert payload[0]["counts"]["done"] == 1

    def test_campaign_watch_once(self, capsys, tmp_path: Path):
        store = tmp_path / "store"
        argv = [
            "campaign", "run", "--store", str(store),
            "--rates", "0.05", "--trials", "1", "--shard-trials", "1",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["campaign", "watch", "--store", str(store), "--once"]) == 0
        output = capsys.readouterr().out
        assert "campaign complete" in output
        assert "shards: 1 done" in output

    def test_campaign_watch_empty_store(self, capsys, tmp_path: Path):
        assert main(["campaign", "watch", "--store", str(tmp_path / "none"), "--once"]) == 0
        assert "no campaigns recorded" in capsys.readouterr().out


class TestCampaignDistributedCli:
    def test_launch_parser_options(self):
        args = build_parser().parse_args(
            [
                "campaign",
                "launch",
                "--store",
                "s",
                "--workers",
                "4",
                "--quick",
                "--lease-ttl",
                "10",
                "--claim-batch",
                "2",
            ]
        )
        assert args.campaign_command == "launch"
        assert args.workers == 4
        assert args.lease_ttl == 10.0
        assert args.claim_batch == 2

    def test_worker_parser_options(self):
        args = build_parser().parse_args(
            [
                "campaign",
                "worker",
                "abc123",
                "--store",
                "s",
                "--worker-id",
                "w7",
                "--poll",
                "0.1",
                "--max-shards",
                "3",
            ]
        )
        assert args.campaign_command == "worker"
        assert args.plan == "abc123"
        assert args.worker_id == "w7"
        assert args.poll == 0.1
        assert args.max_shards == 3

    def test_worker_plan_is_optional(self):
        args = build_parser().parse_args(["campaign", "worker", "--store", "s"])
        assert args.plan is None

    def test_worker_on_empty_store_errors(self, capsys, tmp_path: Path):
        code = main(["campaign", "worker", "--store", str(tmp_path / "none")])
        assert code == 1
        assert "no campaign manifests" in capsys.readouterr().err

    def test_worker_end_to_end(self, capsys, tmp_path: Path):
        store = tmp_path / "store"
        # Record the plan without executing it (a worker needs a manifest).
        from repro.campaign import ShardStore
        from repro.cli import _campaign_plan_from_args

        plan_args = build_parser().parse_args(
            ["campaign", "run", "--store", str(store), "--quick", "--shard-trials", "4"]
        )
        _, plan = _campaign_plan_from_args(plan_args)
        ShardStore(store).save_manifest(plan)

        code = main(
            ["campaign", "worker", "--store", str(store), "--worker-id", "w0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "worker w0: executed" in out

        # Worker provenance lands in campaign status --json.
        assert main(["campaign", "status", "--store", str(store), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        health = payload[0] if isinstance(payload, list) else payload
        assert health["complete"]
        assert {shard["worker"] for shard in health["shards"]} == {"w0"}

    def test_worker_ambiguous_plan_errors(self, capsys, tmp_path: Path):
        store = tmp_path / "store"
        from repro.campaign import ShardStore
        from repro.cli import _campaign_plan_from_args

        shard_store = ShardStore(store)
        for seed in (1, 2):
            plan_args = build_parser().parse_args(
                [
                    "campaign", "run", "--store", str(store),
                    "--quick", "--seed", str(seed),
                ]
            )
            _, plan = _campaign_plan_from_args(plan_args)
            shard_store.save_manifest(plan)
        code = main(["campaign", "worker", "--store", str(store)])
        assert code == 1
        assert "name one by digest prefix" in capsys.readouterr().err

    def test_launch_end_to_end(self, capsys, tmp_path: Path):
        store = tmp_path / "store"
        code = main(
            [
                "campaign",
                "launch",
                "--store",
                str(store),
                "--workers",
                "2",
                "--quick",
                "--shard-trials",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "launching 2 lease-based worker(s)" in out
        assert "shards by worker:" in out
        assert "Campaign sweep" in out


class TestCellCli:
    QUICK = [
        "cell", "serve", "--quick", "--users", "16", "--arrival", "5000",
        "--rate", "0.2", "--probe-budget", "32", "--seed", "5",
    ]

    def test_serve_parses(self):
        args = build_parser().parse_args(
            ["cell", "serve", "--users", "100", "--arrival", "1500",
             "--duration", "0.5", "--scheme", "Scan", "--workers", "2"]
        )
        assert args.cell_command == "serve"
        assert args.users == 100
        assert args.arrival == 1500.0
        assert args.duration == 0.5
        assert args.workers == 2

    def test_quick_serve_renders_summary(self, capsys):
        assert main(self.QUICK) == 0
        out = capsys.readouterr().out
        assert "cell plan" in out
        assert "latency (ms)" in out
        assert "SNR loss (dB)" in out

    def test_summary_byte_identical_across_modes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(self.QUICK + ["--summary", str(a)]) == 0
        assert main(self.QUICK + ["--serial", "--summary", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_openmetrics_output_parses(self, tmp_path, capsys):
        from repro.obs.openmetrics import parse_openmetrics

        target = tmp_path / "cell.prom"
        assert main(self.QUICK + ["--openmetrics", str(target)]) == 0
        capsys.readouterr()
        families = parse_openmetrics(target.read_text())
        assert "repro_cell_ues_done" in families

    def test_store_resume_reports_cached(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(self.QUICK + ["--store", store, "--shard-ues", "8"]) == 0
        capsys.readouterr()
        assert main(self.QUICK + ["--store", store, "--shard-ues", "8"]) == 0
        out = capsys.readouterr().out
        assert "(cached 2)" in out

    def test_bad_scheme_errors(self, capsys):
        assert main(["cell", "serve", "--quick", "--scheme", "NoSuch"]) == 2
        assert "error" in capsys.readouterr().err

    def test_negative_batch_users_rejected_up_front(self, capsys):
        assert main(self.QUICK + ["--batch-users", "-4"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "repro: error: batch_users must be >= 0, got -4\n"
        assert "cell plan" not in captured.out

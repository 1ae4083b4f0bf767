"""Unit tests of the benchmark-regression gate (benchmarks/check_regression.py).

The gate is stdlib-only and file-driven, so these tests exercise it
end-to-end against synthetic ``BENCH_*.json`` directories: pass/fail
thresholds, calibration normalization, the tiny-stat floor, baseline
refresh, and the ``--inject-slowdown`` self-test hook.
"""

from __future__ import annotations

import json

import pytest

from benchmarks import check_regression as gate


def _write_bench(directory, label, mean_s, p50_s=None, p95_s=None, count=10):
    payload = {
        "name": label,
        "count": count,
        "mean_s": mean_s,
        "p50_s": p50_s if p50_s is not None else mean_s,
        "p95_s": p95_s if p95_s is not None else mean_s,
    }
    path = directory / f"BENCH_{label}.json"
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return path


@pytest.fixture()
def bench_dir(tmp_path):
    directory = tmp_path / "bench"
    directory.mkdir()
    return directory


@pytest.fixture()
def baseline_path(tmp_path):
    return tmp_path / "baseline.json"


def _make_baseline(path, entries):
    gate.write_baseline(path, entries)
    return path


class TestLoadSession:
    def test_reads_all_labels(self, bench_dir):
        _write_bench(bench_dir, "alpha", 1e-3)
        _write_bench(bench_dir, "beta", 2e-3)
        session = gate.load_session(bench_dir)
        assert set(session) == {"alpha", "beta"}
        assert session["alpha"]["mean_s"] == pytest.approx(1e-3)

    def test_label_falls_back_to_filename(self, bench_dir):
        payload = {"mean_s": 1e-3, "p50_s": 1e-3, "p95_s": 1e-3}
        (bench_dir / "BENCH_gamma.json").write_text(json.dumps(payload))
        assert "gamma" in gate.load_session(bench_dir)

    def test_empty_directory(self, bench_dir):
        assert gate.load_session(bench_dir) == {}


class TestCompare:
    def test_identical_timings_pass(self, bench_dir):
        _write_bench(bench_dir, "alpha", 1e-3)
        session = gate.load_session(bench_dir)
        assert gate.compare(session, session, threshold=0.25) == []

    def test_slowdown_beyond_threshold_fails(self, bench_dir):
        _write_bench(bench_dir, "alpha", 1e-3)
        baseline = gate.load_session(bench_dir)
        session = {"alpha": {"mean_s": 1.5e-3, "p50_s": 1.5e-3, "p95_s": 1.5e-3}}
        failures = gate.compare(baseline, session, threshold=0.25)
        assert len(failures) == 2  # mean_s and p50_s both gated
        assert "alpha" in failures[0]

    def test_slowdown_within_threshold_passes(self, bench_dir):
        _write_bench(bench_dir, "alpha", 1e-3)
        baseline = gate.load_session(bench_dir)
        session = {"alpha": {"mean_s": 1.2e-3, "p50_s": 1.2e-3, "p95_s": 1.2e-3}}
        assert gate.compare(baseline, session, threshold=0.25) == []

    def test_speedup_passes(self, bench_dir):
        _write_bench(bench_dir, "alpha", 1e-3)
        baseline = gate.load_session(bench_dir)
        session = {"alpha": {"mean_s": 5e-4, "p50_s": 5e-4, "p95_s": 5e-4}}
        assert gate.compare(baseline, session, threshold=0.25) == []

    def test_missing_session_label_is_skipped(self, bench_dir):
        _write_bench(bench_dir, "alpha", 1e-3)
        baseline = gate.load_session(bench_dir)
        assert gate.compare(baseline, {}, threshold=0.25) == []

    def test_new_session_label_never_fails(self, bench_dir):
        _write_bench(bench_dir, "brand-new", 1e-3)
        session = gate.load_session(bench_dir)
        assert gate.compare({}, session, threshold=0.25) == []

    def test_new_labels_are_named(self, bench_dir, capsys):
        _write_bench(bench_dir, "brand-new", 1e-3)
        _write_bench(bench_dir, "also-new", 1e-3)
        session = gate.load_session(bench_dir)
        assert gate.new_labels({}, session) == ["also-new", "brand-new"]
        gate.compare({}, session, threshold=0.25)
        output = capsys.readouterr().out
        assert "NEW (2 unbaselined): also-new, brand-new" in output

    def test_new_labels_exclude_calibration(self):
        session = {gate.CALIBRATION_LABEL: {"mean_s": 1e-3}, "alpha": {"mean_s": 1e-3}}
        assert gate.new_labels({}, session) == ["alpha"]

    def test_tiny_baseline_not_gated(self):
        floor = gate.MIN_GATED_SECONDS
        baseline = {"tiny": {"mean_s": floor / 2, "p50_s": floor / 2}}
        session = {"tiny": {"mean_s": floor * 50, "p50_s": floor * 50}}
        assert gate.compare(baseline, session, threshold=0.25) == []

    def test_p95_tail_is_not_gated(self):
        """Tail latency is reported but never fails the gate."""
        baseline = {"alpha": {"mean_s": 1e-3, "p50_s": 1e-3, "p95_s": 1e-3}}
        session = {"alpha": {"mean_s": 1e-3, "p50_s": 1e-3, "p95_s": 5e-3}}
        assert gate.compare(baseline, session, threshold=0.25) == []

    def test_calibration_normalizes_machine_speed(self):
        """A 2x-slower machine shows 2x timings but an unchanged ratio."""
        baseline = {
            gate.CALIBRATION_LABEL: {"mean_s": 1e-3, "p50_s": 1e-3},
            "alpha": {"mean_s": 1e-3, "p50_s": 1e-3},
        }
        session = {
            gate.CALIBRATION_LABEL: {"mean_s": 2e-3, "p50_s": 2e-3},
            "alpha": {"mean_s": 2e-3, "p50_s": 2e-3},
        }
        assert gate.compare(baseline, session, threshold=0.25) == []

    def test_calibration_does_not_mask_real_regression(self):
        """Same machine speed, genuinely slower code: still fails."""
        baseline = {
            gate.CALIBRATION_LABEL: {"mean_s": 1e-3, "p50_s": 1e-3},
            "alpha": {"mean_s": 1e-3, "p50_s": 1e-3},
        }
        session = {
            gate.CALIBRATION_LABEL: {"mean_s": 1e-3, "p50_s": 1e-3},
            "alpha": {"mean_s": 2e-3, "p50_s": 2e-3},
        }
        assert len(gate.compare(baseline, session, threshold=0.25)) == 2

    def test_missing_calibration_falls_back_to_raw(self):
        baseline = {"alpha": {"mean_s": 1e-3, "p50_s": 1e-3}}
        session = {"alpha": {"mean_s": 2e-3, "p50_s": 2e-3}}
        assert len(gate.compare(baseline, session, threshold=0.25)) == 2


class TestMain:
    def test_gate_passes_against_own_baseline(self, bench_dir, baseline_path):
        _write_bench(bench_dir, "alpha", 1e-3)
        _make_baseline(baseline_path, gate.load_session(bench_dir))
        code = gate.main(
            ["--bench-dir", str(bench_dir), "--baseline", str(baseline_path)]
        )
        assert code == 0

    def test_gate_fails_on_regression(self, bench_dir, baseline_path):
        _write_bench(bench_dir, "alpha", 1e-3)
        _make_baseline(baseline_path, {"alpha": {"mean_s": 5e-4, "p95_s": 5e-4}})
        code = gate.main(
            ["--bench-dir", str(bench_dir), "--baseline", str(baseline_path)]
        )
        assert code == 1

    def test_inject_slowdown_fails_clean_session(self, bench_dir, baseline_path):
        """The CI self-test path: a 2x injection must trip the gate."""
        _write_bench(bench_dir, "alpha", 1e-3)
        _make_baseline(baseline_path, gate.load_session(bench_dir))
        code = gate.main(
            [
                "--bench-dir",
                str(bench_dir),
                "--baseline",
                str(baseline_path),
                "--inject-slowdown",
                "2",
            ]
        )
        assert code == 1

    def test_inject_slowdown_spares_calibration(self, bench_dir, baseline_path):
        """Injection simulates slow *code*; the machine-speed probe stays."""
        _write_bench(bench_dir, gate.CALIBRATION_LABEL, 1e-3)
        _write_bench(bench_dir, "alpha", 1e-3)
        _make_baseline(baseline_path, gate.load_session(bench_dir))
        code = gate.main(
            [
                "--bench-dir",
                str(bench_dir),
                "--baseline",
                str(baseline_path),
                "--inject-slowdown",
                "3",
            ]
        )
        assert code == 1

    def test_update_writes_baseline(self, bench_dir, baseline_path):
        _write_bench(bench_dir, "alpha", 1e-3)
        code = gate.main(
            [
                "--bench-dir",
                str(bench_dir),
                "--baseline",
                str(baseline_path),
                "--update",
            ]
        )
        assert code == 0
        payload = json.loads(baseline_path.read_text())
        assert payload["version"] == gate.BASELINE_VERSION
        assert "alpha" in payload["entries"]

    def test_update_then_gate_round_trip(self, bench_dir, baseline_path):
        _write_bench(bench_dir, "alpha", 1e-3)
        args = ["--bench-dir", str(bench_dir), "--baseline", str(baseline_path)]
        assert gate.main([*args, "--update"]) == 0
        assert gate.main(args) == 0

    def test_strict_new_fails_on_unbaselined_bench(self, bench_dir, baseline_path):
        _write_bench(bench_dir, "alpha", 1e-3)
        _write_bench(bench_dir, "brand-new", 1e-3)
        _make_baseline(baseline_path, {"alpha": {"mean_s": 1e-3, "p50_s": 1e-3}})
        args = ["--bench-dir", str(bench_dir), "--baseline", str(baseline_path)]
        assert gate.main(args) == 0  # default: informational only
        assert gate.main([*args, "--strict-new"]) == 1

    def test_strict_new_passes_when_all_baselined(self, bench_dir, baseline_path):
        _write_bench(bench_dir, "alpha", 1e-3)
        _make_baseline(baseline_path, gate.load_session(bench_dir))
        args = ["--bench-dir", str(bench_dir), "--baseline", str(baseline_path)]
        assert gate.main([*args, "--strict-new"]) == 0

    def test_missing_baseline_errors(self, bench_dir, baseline_path):
        _write_bench(bench_dir, "alpha", 1e-3)
        code = gate.main(
            ["--bench-dir", str(bench_dir), "--baseline", str(baseline_path)]
        )
        assert code == 1

    def test_empty_bench_dir_errors(self, bench_dir, baseline_path):
        code = gate.main(
            ["--bench-dir", str(bench_dir), "--baseline", str(baseline_path)]
        )
        assert code == 1

    def test_threshold_flag_widens_allowance(self, bench_dir, baseline_path):
        _write_bench(bench_dir, "alpha", 1.4e-3)
        _make_baseline(baseline_path, {"alpha": {"mean_s": 1e-3, "p95_s": 1e-3}})
        args = ["--bench-dir", str(bench_dir), "--baseline", str(baseline_path)]
        assert gate.main(args) == 1
        assert gate.main([*args, "--threshold", "0.5"]) == 0

    def test_committed_baseline_is_loadable(self):
        """The repo's own baseline parses and carries the calibration label."""
        entries = gate.load_baseline(gate.DEFAULT_BASELINE)
        assert gate.CALIBRATION_LABEL in entries
        assert all("mean_s" in stats for stats in entries.values())


class TestTrajectoryArtifact:
    """benchmarks/make_trajectory.py: BENCH_* label files -> BENCH_<tag>.json."""

    def _session(self, bench_dir):
        _write_bench(bench_dir, "alpha", 2e-3)
        _write_bench(bench_dir, "beta", 4e-3)
        _write_bench(bench_dir, "calibration", 1e-3)
        return bench_dir

    def test_builds_normalized_entries(self, bench_dir):
        from benchmarks import make_trajectory

        entries = make_trajectory.load_bench_files(self._session(bench_dir))
        payload = make_trajectory.build_trajectory("PR5", [entries])
        assert payload["kind"] == "bench-trajectory-v1"
        assert payload["tag"] == "PR5"
        assert set(payload["entries"]) == {"alpha", "beta"}  # calibration split out
        assert payload["entries"]["alpha"]["mean_normalized"] == pytest.approx(2.0)
        assert payload["entries"]["beta"]["mean_normalized"] == pytest.approx(4.0)
        assert payload["calibration"]["mean_s"] == pytest.approx(1e-3)

    def test_folds_multiple_sessions(self, tmp_path):
        from benchmarks import make_trajectory

        sessions = []
        for name, scale in (("fast", 1e-3), ("slow", 2e-3)):
            directory = tmp_path / name
            directory.mkdir()
            _write_bench(directory, "alpha", 4 * scale)
            _write_bench(directory, "beta", 3 * scale)
            _write_bench(directory, "calibration", scale)
            sessions.append(make_trajectory.load_bench_files(directory))
        sessions[1].pop("beta")
        payload = make_trajectory.build_trajectory("PR8", sessions)
        # Shared labels are keyed by session position; each session
        # normalizes by its OWN calibration, so both land on one ratio.
        assert set(payload["entries"]) == {"alpha[0]", "alpha[1]", "beta"}
        for key in ("alpha[0]", "alpha[1]"):
            assert payload["entries"][key]["mean_normalized"] == pytest.approx(4.0)
        assert payload["entries"]["beta"]["mean_normalized"] == pytest.approx(3.0)
        assert payload["calibration"]["mean_s"] == pytest.approx(1e-3)

    def test_main_writes_artifact_and_skips_itself(self, bench_dir):
        from benchmarks import make_trajectory

        self._session(bench_dir)
        out = bench_dir / "BENCH_PR9.json"
        argv = ["--tag", "PR9", "--bench-dir", str(bench_dir), "--out", str(out)]
        assert make_trajectory.main(argv) == 0
        first = json.loads(out.read_text(encoding="utf-8"))
        # Re-running must not fold the previous artifact into itself.
        assert make_trajectory.main(argv) == 0
        assert json.loads(out.read_text(encoding="utf-8")) == first

    def test_missing_bench_dir_fails(self, tmp_path):
        from benchmarks import make_trajectory

        empty = tmp_path / "empty"
        empty.mkdir()
        assert make_trajectory.main(["--tag", "X", "--bench-dir", str(empty)]) == 1

    def test_committed_trajectory_is_current_format(self):
        from benchmarks import make_trajectory

        committed = make_trajectory.REPO_ROOT / "BENCH_PR5.json"
        payload = json.loads(committed.read_text(encoding="utf-8"))
        assert payload["kind"] == "bench-trajectory-v1"
        assert payload["version"] == make_trajectory.TRAJECTORY_VERSION
        assert payload["entries"]

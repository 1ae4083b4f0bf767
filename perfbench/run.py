"""Benchmark entry point: one measured run of one workload.

    python3 perfbench/run.py --workload fig6-sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The run starts fresh interpreters in a clean environment (no ambient
``REPRO_*`` variables, BLAS threads x worker processes <= nproc):
set-up probes whose median wall time is ``setup_s``, half before and
half after one measured session (``session.py``), whose calls give
``ops_per_s`` as the median over calls. Times are scaled by the
reference kernel of ``calibrate.py`` to one host speed; the printed
notes give the times as measured too. It prints each metric with its
unit and sample count, the per-layer roll-up with ``--trace 1``, and as
its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones of ``BENCHMARK.json``, with ``--trace 1`` the per-layer
ones.

Exit status: 0 when every output check passed, 1 when one failed (the
result is still printed), 2 when no result could be produced.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from calibrate import REFERENCE_S
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: where runs keep their temporary stores and spans (ignored by git)
RUN_DIR = ROOT / ".perfbench-run"
#: fresh interpreters timed per run for ``setup_s``
SETUP_PROBES = 10
#: the whole run, set-up probes included, must end before this
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """A run that cannot produce a result."""


def failed_fraction(failed: int, attempted: int) -> float:
    """Failed operations per attempted one; a run that attempted nothing
    verified nothing, so it counts as entirely failed."""
    if attempted == 0:
        return 1.0
    return failed / attempted


def clean_env() -> Dict[str, str]:
    """The environment every benchmark interpreter starts with.

    Ambient ``REPRO_*`` settings are dropped (``REPRO_BACKEND=numba``
    alone would put every kernel on the fallback path). BLAS gets one
    thread per process, so the two campaign workers never oversubscribe
    the cores; on the 64x64 solves a second thread saves no wall time
    and doubles CPU time.
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    for key in BLAS_THREAD_VARS:
        env[key] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def session_command(mode: str, args: argparse.Namespace, workdir: Path) -> List[str]:
    return [
        sys.executable,
        str(HERE / "session.py"),
        mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--workdir", str(workdir),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(workdir / "result.json"),
    ]


def run_session(
    command: List[str], env: Dict[str, str], timeout: float
) -> Tuple[float, str]:
    """Run one session in its own process group.

    Returns the wall time until the session printed its first line, and
    all it printed. The group is killed on timeout, and afterwards so
    that no worker it may have left behind outlives the run.
    """
    begin = time.perf_counter()
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        if not select.select([process.stdout], [], [], timeout)[0]:
            raise subprocess.TimeoutExpired(command, timeout)
        first = process.stdout.readline()
        ready = time.perf_counter() - begin
        rest, _ = process.communicate(timeout=max(1.0, timeout - ready))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise BenchError(f"{command[2]} session timed out after {timeout:.0f} s")
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if process.returncode != 0:
        raise BenchError(f"{command[2]} session exited with status {process.returncode}")
    return ready, first + rest


def quantile_note(values: List[float], unit: str) -> str:
    values = sorted(values)
    if len(values) < 2:
        return f"n={len(values)}"
    return (
        f"n={len(values)}, p50 {statistics.median(values):.4g} {unit},"
        f" max {values[-1]:.4g} {unit}"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    began = time.perf_counter()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}")
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        workload = WORKLOADS[args.workload]
        workdir = RUN_DIR / args.workload
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        env = clean_env()

        probes: List[dict] = []
        setup_walls: List[float] = []

        def probe_setup() -> None:
            for _ in range(SETUP_PROBES // 2):
                ready, out = run_session(session_command("setup", args, workdir), env, 60.0)
                probe, kernel = (json.loads(line) for line in out.strip().splitlines()[-2:])
                setup_walls.append(ready * REFERENCE_S / kernel["kernel_s"])
                probes.append(probe)

        # Half the probes before the measured session and half after, so
        # the median does not hang on one stretch of the host's speed.
        probe_setup()
        # Keep back about what the first half of the probes took.
        remaining = DEADLINE_S - 2 * (time.perf_counter() - began)
        run_session(session_command("run", args, workdir), env, remaining)
        probe_setup()
        result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
        for child in workdir.iterdir():  # stores and spools; keep result and spans
            if child.is_dir():
                shutil.rmtree(child)
    except (BenchError, OSError, ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    calls = result["calls"]
    ops = sum(call["ops"] for call in calls)
    raw_seconds = [call["seconds"] for call in calls]
    seconds = sum(raw_seconds)
    attempted, failed = result["attempted"], result["failed"]
    stamp = dict(result["stamp"], commit=git_commit())
    print(f"stamp {json.dumps(stamp, sort_keys=True)}")
    print(
        f"{args.workload} seed {args.seed}: {len(calls)} calls, {ops} {workload.op}"
        f" in {seconds:.3f} s; failed_fraction {failed_fraction(failed, attempted):.4g}"
        f" ({failed} of {attempted} {workload.op} failed their check)"
    )
    if args.trace:
        print(result["rollup"])
        metrics = dict(result["layers"])
        metrics["startup.repro_modules"] = statistics.median(p["repro_modules"] for p in probes)
        metrics["startup.import_s"] = statistics.median(p["import_s"] for p in probes)
        specs = spec["per_layer"]
    else:
        scaled = [call["seconds"] * REFERENCE_S / call["kernel_s"] for call in calls]
        metrics = {
            "setup_s": statistics.median(setup_walls),
            "ops_per_s": statistics.median(
                call["ops"] / scaled_s for call, scaled_s in zip(calls, scaled)
            ),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        notes = {
            "setup_s": f"median of {SETUP_PROBES} fresh interpreters, scaled",
            "ops_per_s": f"{workload.alias}, scaled median over {len(calls)} calls of"
            f" {ops // len(calls)} {workload.op}; {workload.call_alias} scaled"
            f" {quantile_note(scaled, 's')}, as measured {quantile_note(raw_seconds, 's')}",
            "peak_rss_mb": "run process and its workers, n=1",
        }
        specs = spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in specs}
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 2
    for name in units:
        note = "" if args.trace else f"  ({notes[name]})"
        print(f"  {name} = {metrics[name]:.6g} {units[name]}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

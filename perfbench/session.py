"""One benchmark process, started by ``run.py`` in a clean environment.

``session.py setup`` is a set-up probe: a fresh interpreter imports
``repro.cli`` and the workload's entry module, builds the workload's
scenario or plan, reports what it loaded and exits at once.

``session.py run`` is a measured run. It calls the workload back to back
until ``--seconds`` have passed (the untraced calls give the end-to-end
numbers), and with ``--trace 1`` repeats the same calls with every layer
wrapped in spans. Outputs are checked after timing stops; the result
goes to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, List, Optional

from calibrate import REFERENCE_S, kernel_seconds
from tracer import CLOCK, Tracer, load_spool
from workloads import WORKLOADS, Workload


@dataclass
class Call:
    item: int
    ops: int
    seconds: float
    #: reference kernel time around the call (mean of before and after)
    kernel_s: float
    fingerprint: Any

    @property
    def scaled_seconds(self) -> float:
        return self.seconds * REFERENCE_S / self.kernel_s


def setup_probe(workload: Workload, seed: int) -> None:
    begin = time.perf_counter()
    workload.imports()
    import_s = time.perf_counter() - begin
    workload.build(seed)
    modules = sum(1 for name in sys.modules if name == "repro" or name.startswith("repro."))
    # Set-up ends here, at the first line; the kernel runs after it.
    print(json.dumps({"import_s": import_s, "repro_modules": modules}), flush=True)
    print(json.dumps({"kernel_s": kernel_seconds()}), flush=True)
    # Skip interpreter teardown, which is no part of set-up.
    os._exit(0)


def timed_calls(
    workload: Workload,
    items: Iterable[int],
    seconds: Optional[float] = None,
    tracer: Optional[Tracer] = None,
) -> List[Call]:
    """Call the workload per item; stop once ``seconds`` have been spent
    and the workload's minimum number of calls has been made."""
    from layers import ROOT

    calls: List[Call] = []
    spent = 0.0
    kernel = kernel_seconds(workload.processes)
    for item in items:
        if tracer is not None:
            tracer.enabled = True
            root = tracer.open(ROOT)
        begin = CLOCK()
        ops, raw = workload.run(item)
        elapsed = CLOCK() - begin
        if tracer is not None:
            tracer.close(root)
            tracer.enabled = False
        fingerprint = workload.fingerprint(item, raw)
        after = kernel_seconds(workload.processes)
        calls.append(Call(item, ops, elapsed, (kernel + after) / 2, fingerprint))
        kernel = after
        spent += elapsed
        if seconds is not None and spent >= seconds and len(calls) >= workload.min_calls:
            break
    return calls


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any worker it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def stamp() -> dict:
    import numpy

    import repro.xp

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "backend": repro.xp.active_backend().name,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "repro_env": sorted(key for key in os.environ if key.startswith("REPRO_")),
    }


def measured_run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    workload.imports()
    workload.build(seed)
    workload.prepare(seed)
    untraced = timed_calls(workload, workload.items(seed), seconds=seconds)
    result: dict = {}
    traced: List[Call] = []
    if trace:
        import layers

        spool = workload.workdir / "spool"
        spool.mkdir()
        tracer = Tracer("main", spool_dir=spool)
        tracer.enabled = False
        patcher = layers.install(tracer)
        # A fixed number of calls, so that counts compare across commits.
        plain = untraced[: workload.traced_calls]
        try:
            traced = timed_calls(workload, [call.item for call in plain], tracer=tracer)
        finally:
            patcher.restore()
        worker_spans, worker_counters = load_spool(spool)
        spans = tracer.spans + worker_spans
        counters = tracer.counters + worker_counters
        useful = sum(call.ops for call in traced) if workload.executes_shards else 0
        overhead = sum(c.scaled_seconds for c in traced) / sum(
            c.scaled_seconds for c in plain
        )
        result["layers"] = layers.layer_metrics(spans, counters, useful, overhead)
        result["rollup"] = layers.render_rollup(spans, f"{workload.name}: traced calls")
        with open(workload.workdir / "spans.jsonl", "w", encoding="utf-8") as out:
            for span in spans:
                out.write(json.dumps(span.__dict__) + "\n")

    attempted = failed = 0
    for call in untraced:
        attempted += call.ops
        if not workload.check(call.item, call.fingerprint):
            failed += call.ops
    if not workload.check_run([call.fingerprint for call in untraced]):
        failed = attempted
    # A traced call must reproduce its untraced output exactly: the
    # wrappers may cost time but never change a result.
    for plain, wrapped in zip(untraced, traced):
        attempted += wrapped.ops
        if wrapped.fingerprint != plain.fingerprint:
            failed += wrapped.ops
    result.update(
        calls=[
            {"item": c.item, "ops": c.ops, "seconds": c.seconds, "kernel_s": c.kernel_s}
            for c in untraced
        ],
        attempted=attempted,
        failed=failed,
        peak_rss_mb=peak_rss_mb(),
        stamp=stamp(),
    )
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload](args.workdir)
    if args.mode == "setup":
        setup_probe(workload, args.seed)
    print(json.dumps({"session": "run", "workload": workload.name}), flush=True)
    result = measured_run(workload, args.seed, args.seconds, bool(args.trace))
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark: cell serve throughput (UEs/sec) at three cell sizes.

One batched ``serve_cell`` run per cell size on the paper-scale arrays'
smaller sibling (the scheduler and record plumbing cost scales with the
UE count; the per-UE alignment cost with the codebook product — this
suite isolates the former while keeping a realistic alignment inside).
The emitted ``BENCH_cell-serve-<N>.json`` labels carry wall-clock stats
per size, so the trajectory tracks cell-scale throughput across PRs.

Every run is verified to cover all admitted UEs and the smallest size is
re-served at the end and required to reproduce identical records, so the
benchmark can never silently time a wrong (e.g. truncated or
nondeterministic) workload.
"""

from __future__ import annotations

from benchmarks.conftest import BENCH_METRICS, run_once
from repro.cell import CellConfig, serve_cell
from repro.sim.config import ChannelKind, ScenarioConfig

CELL_SIZES = (64, 192, 384)

SCENARIO = ScenarioConfig(
    channel=ChannelKind.MULTIPATH,
    tx_shape=(2, 2),
    rx_shape=(4, 4),
    rx_beam_grid=(6, 6),
    snr_db=20.0,
)


def _cell_config(num_users: int, bench_seed: int) -> CellConfig:
    return CellConfig(
        scenario=SCENARIO,
        num_users=num_users,
        arrival_rate_hz=4000.0,
        search_rate=0.1,
        probe_budget_per_frame=64,
        base_seed=bench_seed,
    )


def test_cell_serve_scaling(benchmark, bench_seed):
    reports = {}

    def serve_at(num_users: int):
        report = serve_cell(_cell_config(num_users, bench_seed), batch_users=32)
        assert report.summary["num_ues"] == num_users
        reports[num_users] = report
        return report

    # Timed labels: one per cell size, UE count in the label.
    for num_users in CELL_SIZES[:-1]:
        with BENCH_METRICS.timer(f"cell-serve-{num_users}"):
            serve_at(num_users)
    run_once(
        benchmark,
        serve_at,
        CELL_SIZES[-1],
        bench_label=f"cell-serve-{CELL_SIZES[-1]}",
    )

    elapsed = {
        num_users: BENCH_METRICS.timers[f"cell-serve-{num_users}"][-1]
        for num_users in CELL_SIZES
    }
    print()
    print("cell serve scaling (batched, UEs/sec wall-clock):")
    for num_users in CELL_SIZES:
        rate = num_users / elapsed[num_users]
        print(f"  users={num_users:4d}: {elapsed[num_users]:6.2f}s  {rate:7.1f} UE/s")

    # The workload must be the deterministic one: re-serving the smallest
    # size reproduces identical records.
    again = serve_cell(_cell_config(CELL_SIZES[0], bench_seed), batch_users=32)
    assert again.records == reports[CELL_SIZES[0]].records

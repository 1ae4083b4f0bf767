"""Ablations and setup-fact experiments.

Everything the paper asserts but does not plot gets regenerated here:

* ``lowrank`` — the low-rank property of Sec. IV-A1 (a handful of spatial
  dimensions carries ~95% of the channel energy);
* ``abl-estimator`` — penalized ML (Eq. 23) vs least-squares + nuclear
  norm vs naive back-projection inside the proposed scheme;
* ``abl-j`` — sensitivity to ``J`` (measurements per TX-slot) at a fixed
  total budget;
* ``abl-mu`` — sensitivity to the low-rank penalty weight ``mu``;
* ``abl-floor`` — the detection floor / exploration guard (setting it to
  zero reproduces the argmax-tie lock-in pathology);
* ``mac-overhead`` — effective capacity vs search rate through the MAC
  timing model (the Sec. I motivation for cheap alignment);
* ``cell-search`` — directional initial-access latency (random vs
  scanning RX), the related-work context of [12].
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.arrays.upa import UniformPlanarArray
from repro.channel.covariance import low_rank_summary
from repro.channel.multipath import sample_nyc_channel
from repro.core.proposed import ProposedAlignment
from repro.estimation.ls_covariance import LsCovarianceEstimator
from repro.estimation.ml_covariance import MlCovarianceEstimator
from repro.estimation.sample_covariance import BackProjectionEstimator
from repro.experiments.common import DEFAULT_SEED, build_scenario
from repro.experiments.registry import Experiment, ExperimentResult, register
from repro.experiments.render import render_table
from repro.mac.cell_search import CellSearchConfig, simulate_cell_search
from repro.mac.frames import FrameConfig
from repro.mac.simulator import MacSimulator
from repro.sim.aggregate import summarize
from repro.sim.config import ChannelKind
from repro.sim.runner import run_trials
from repro.utils.rng import trial_generator

__all__ = [
    "run_lowrank",
    "run_estimator_ablation",
    "run_j_ablation",
    "run_mu_ablation",
    "run_floor_ablation",
    "run_mac_overhead",
    "run_cell_search",
]


# ----------------------------------------------------------------------
# lowrank — the setup fact everything rests on
# ----------------------------------------------------------------------


def run_lowrank(
    num_channels: int = 200,
    base_seed: int = DEFAULT_SEED,
    quick: bool = False,
) -> ExperimentResult:
    """Eigen-energy concentration of NYC-style RX covariances.

    The paper (citing [3]) expects ~3 spatial dimensions to carry ~95% of
    the energy for a 16-element array; we report the same statistic for
    both a 4x4 (16-element) and the evaluation's 8x8 (64-element) array.
    """
    if quick:
        num_channels = min(num_channels, 20)
    arrays = {"4x4 (16 elems)": (4, 4), "8x8 (64 elems)": (8, 8)}
    tx_array = UniformPlanarArray(4, 4)
    rows = []
    data: Dict[str, object] = {"num_channels": num_channels}
    for label, shape in arrays.items():
        rx_array = UniformPlanarArray(*shape)
        ranks, top1, top3, top5 = [], [], [], []
        for index in range(num_channels):
            rng = trial_generator(base_seed, index)
            channel = sample_nyc_channel(tx_array, rx_array, rng)
            summary = low_rank_summary(channel.full_rx_covariance())
            ranks.append(summary.effective_rank_95)
            top1.append(summary.energy_top1)
            top3.append(summary.energy_top3)
            top5.append(summary.energy_top5)
        data[label] = {
            "mean_rank95": float(np.mean(ranks)),
            "median_rank95": float(np.median(ranks)),
            "mean_top1": float(np.mean(top1)),
            "mean_top3": float(np.mean(top3)),
            "mean_top5": float(np.mean(top5)),
        }
        rows.append(
            [
                label,
                f"{np.mean(ranks):5.2f}",
                f"{np.median(ranks):4.0f}",
                f"{np.mean(top1):6.1%}",
                f"{np.mean(top3):6.1%}",
                f"{np.mean(top5):6.1%}",
            ]
        )
    table = render_table(
        ["RX array", "rank95 (mean)", "rank95 (med)", "top-1", "top-3", "top-5"],
        rows,
        title="Low-rank property of the NYC multipath covariance (Sec. IV-A1)",
    )
    return ExperimentResult("lowrank", "Low-rank covariance energy", data, table)


# ----------------------------------------------------------------------
# Scheme-variant ablations (shared harness)
# ----------------------------------------------------------------------


def _variant_sweep(
    variants: Dict[str, object],
    channel: ChannelKind,
    search_rate: float,
    num_trials: int,
    base_seed: int,
    title: str,
    experiment_id: str,
) -> ExperimentResult:
    """Run named ProposedAlignment variants under one budget and compare."""
    scenario = build_scenario(channel)
    schemes = {name: (lambda ch, algo=algo: algo) for name, algo in variants.items()}
    trials = run_trials(scenario, schemes, search_rate, num_trials, base_seed=base_seed)
    rows = []
    data: Dict[str, object] = {
        "search_rate": search_rate,
        "num_trials": num_trials,
        "channel": channel.value,
        "mean_loss_db": {},
        "median_loss_db": {},
    }
    for name in variants:
        stats = summarize([trial[name].loss_db for trial in trials])
        data["mean_loss_db"][name] = stats.mean
        data["median_loss_db"][name] = stats.median
        rows.append(
            [name, f"{stats.mean:6.2f}", f"{stats.median:6.2f}", f"±{stats.ci95_halfwidth:4.2f}"]
        )
    table = render_table(
        ["variant", "mean loss(dB)", "median", "95% CI"], rows, title=title
    )
    return ExperimentResult(experiment_id, title, data, table)


def run_estimator_ablation(
    search_rate: float = 0.15,
    num_trials: int = 20,
    base_seed: int = DEFAULT_SEED,
    quick: bool = False,
) -> ExperimentResult:
    """Penalized ML vs LS+nuclear vs back-projection inside Algorithm 1."""
    if quick:
        num_trials = min(num_trials, 4)
    variants = {
        "ML (Eq. 23)": ProposedAlignment(estimator_factory=MlCovarianceEstimator),
        "LS+nuclear": ProposedAlignment(estimator_factory=LsCovarianceEstimator),
        "BackProjection": ProposedAlignment(estimator_factory=BackProjectionEstimator),
    }
    return _variant_sweep(
        variants,
        ChannelKind.MULTIPATH,
        search_rate,
        num_trials,
        base_seed,
        f"Covariance estimator ablation (multipath, rate {search_rate:.0%})",
        "abl-estimator",
    )


def run_j_ablation(
    search_rate: float = 0.15,
    num_trials: int = 20,
    base_seed: int = DEFAULT_SEED,
    j_values: Sequence[int] = (2, 4, 8, 16, 32),
    quick: bool = False,
) -> ExperimentResult:
    """Measurements-per-slot (J) sensitivity at a fixed total budget."""
    if quick:
        num_trials = min(num_trials, 4)
        j_values = (4, 8)
    variants = {
        f"J={j}": ProposedAlignment(measurements_per_slot=j) for j in j_values
    }
    return _variant_sweep(
        variants,
        ChannelKind.MULTIPATH,
        search_rate,
        num_trials,
        base_seed,
        f"Measurements-per-slot ablation (multipath, rate {search_rate:.0%})",
        "abl-j",
    )


def run_mu_ablation(
    search_rate: float = 0.15,
    num_trials: int = 20,
    base_seed: int = DEFAULT_SEED,
    mu_values: Sequence[float] = (0.0, 0.005, 0.05, 0.5, 5.0),
    quick: bool = False,
) -> ExperimentResult:
    """Low-rank penalty weight (Eq. 25 ``mu``) sensitivity."""
    if quick:
        num_trials = min(num_trials, 4)
        mu_values = (0.005, 0.5)
    variants = {
        f"mu={mu:g}": ProposedAlignment(
            estimator_factory=lambda mu=mu: MlCovarianceEstimator(mu=mu)
        )
        for mu in mu_values
    }
    return _variant_sweep(
        variants,
        ChannelKind.MULTIPATH,
        search_rate,
        num_trials,
        base_seed,
        f"Regularization-weight ablation (multipath, rate {search_rate:.0%})",
        "abl-mu",
    )


def run_floor_ablation(
    search_rate: float = 0.15,
    num_trials: int = 20,
    base_seed: int = DEFAULT_SEED,
    quick: bool = False,
) -> ExperimentResult:
    """Detection floor and exploration guard (see ProposedAlignment docs).

    ``floor=0, explore=0`` is the literal paper reading, which collapses
    on orthogonal-tie channels; the defaults repair it.
    """
    if quick:
        num_trials = min(num_trials, 4)
    variants = {
        "floor=0.5, explore=0.25 (default)": ProposedAlignment(),
        "floor=0.5, explore=0": ProposedAlignment(exploration=0.0),
        "floor=0, explore=0 (literal)": ProposedAlignment(
            exploration=0.0, signal_threshold=0.0
        ),
        "floor=2, explore=0.25": ProposedAlignment(signal_threshold=2.0),
    }
    return _variant_sweep(
        variants,
        ChannelKind.SINGLEPATH,
        search_rate,
        num_trials,
        base_seed,
        f"Detection-floor ablation (single-path, rate {search_rate:.0%})",
        "abl-floor",
    )


# ----------------------------------------------------------------------
# MAC experiments
# ----------------------------------------------------------------------


def run_mac_overhead(
    search_rates: Sequence[float] = (0.02, 0.05, 0.10, 0.20, 0.40, 0.80),
    num_intervals: int = 10,
    base_seed: int = DEFAULT_SEED,
    quick: bool = False,
) -> ExperimentResult:
    """Effective capacity vs search rate through the MAC timing model.

    Shows the motivating trade-off: more measurements find better beams
    (higher gross rate) but burn more of each coherence interval, so net
    throughput peaks at a moderate search rate — and the peak is higher
    for cheaper-per-dB schemes.
    """
    if quick:
        num_intervals = min(num_intervals, 3)
        search_rates = (0.05, 0.20)
    scenario = build_scenario(ChannelKind.MULTIPATH)
    simulator = MacSimulator(scenario, FrameConfig())
    rows = []
    data: Dict[str, object] = {"search_rates": list(search_rates), "schemes": {}}
    from repro.baselines.random_search import RandomSearch

    factories = {
        "Proposed": lambda: ProposedAlignment(),
        "Random": lambda: RandomSearch(),
    }
    for name, factory in factories.items():
        nets, overheads, losses = [], [], []
        for rate_index, rate in enumerate(search_rates):
            rng = trial_generator(base_seed, rate_index)
            report = simulator.run(factory, rate, num_intervals, rng)
            nets.append(report.mean_net_bps_hz)
            overheads.append(report.mean_overhead)
            losses.append(report.mean_loss_db)
        data["schemes"][name] = {
            "net_bps_hz": nets,
            "overhead": overheads,
            "loss_db": losses,
        }
        for rate, net, ovh, loss in zip(search_rates, nets, overheads, losses):
            rows.append(
                [name, f"{rate:6.1%}", f"{net:7.3f}", f"{ovh:6.1%}", f"{loss:6.2f}"]
            )
    table = render_table(
        ["scheme", "search rate", "net bps/Hz", "overhead", "loss(dB)"],
        rows,
        title="Effective capacity vs search rate (MAC timing model)",
    )
    return ExperimentResult("mac-overhead", "MAC overhead trade-off", data, table)


def run_cell_search(
    num_trials: int = 100,
    base_seed: int = DEFAULT_SEED,
    quick: bool = False,
) -> ExperimentResult:
    """Directional initial-access latency: random vs scanning RX beams."""
    if quick:
        num_trials = min(num_trials, 10)
    scenario = build_scenario(ChannelKind.MULTIPATH)
    rows = []
    data: Dict[str, object] = {"num_trials": num_trials, "strategies": {}}
    for label, rx_scan in (("random RX", False), ("scanning RX", True)):
        latencies, detect = [], 0
        for index in range(num_trials):
            rng = trial_generator(base_seed, index)
            channel = scenario.sample_channel(rng)
            outcome = simulate_cell_search(
                channel,
                scenario.tx_codebook,
                scenario.rx_codebook,
                rng,
                CellSearchConfig(rx_scan=rx_scan),
            )
            if outcome.detected:
                detect += 1
                latencies.append(outcome.latency_us)
        stats = summarize(latencies) if latencies else None
        data["strategies"][label] = {
            "detection_rate": detect / num_trials,
            "mean_latency_us": stats.mean if stats else float("inf"),
            "median_latency_us": stats.median if stats else float("inf"),
        }
        rows.append(
            [
                label,
                f"{detect / num_trials:6.1%}",
                f"{stats.mean:9.1f}" if stats else "     n/a",
                f"{stats.median:9.1f}" if stats else "     n/a",
            ]
        )
    table = render_table(
        ["RX strategy", "detect rate", "mean us", "median us"],
        rows,
        title="Directional cell search latency (Barati et al. style sweep)",
    )
    return ExperimentResult("cell-search", "Initial access latency", data, table)


# ----------------------------------------------------------------------
# Registration
# ----------------------------------------------------------------------

register(
    Experiment(
        experiment_id="lowrank",
        title="Low-rank covariance energy",
        paper_artifact="setup fact (Sec. IV-A1)",
        runner=run_lowrank,
        description="Eigen-energy concentration of NYC-style covariances.",
    )
)
register(
    Experiment(
        experiment_id="abl-estimator",
        title="Covariance estimator ablation",
        paper_artifact="design choice (Sec. IV-A2)",
        runner=run_estimator_ablation,
        description="ML vs LS+nuclear vs back-projection inside Algorithm 1.",
    )
)
register(
    Experiment(
        experiment_id="abl-j",
        title="Measurements-per-slot ablation",
        paper_artifact="design choice (Fig. 4)",
        runner=run_j_ablation,
        description="Sensitivity to J at a fixed measurement budget.",
    )
)
register(
    Experiment(
        experiment_id="abl-mu",
        title="Regularization-weight ablation",
        paper_artifact="design choice (Eq. 25)",
        runner=run_mu_ablation,
        description="Sensitivity to the nuclear-norm weight mu.",
    )
)
register(
    Experiment(
        experiment_id="abl-floor",
        title="Detection-floor ablation",
        paper_artifact="implementation note (Algorithm 1)",
        runner=run_floor_ablation,
        description="The detection floor / exploration guard vs the literal reading.",
    )
)
register(
    Experiment(
        experiment_id="mac-overhead",
        title="MAC overhead trade-off",
        paper_artifact="motivation (Sec. I)",
        runner=run_mac_overhead,
        description="Effective capacity vs search rate through MAC timing.",
    )
)
register(
    Experiment(
        experiment_id="cell-search",
        title="Initial access latency",
        paper_artifact="related work context ([12])",
        runner=run_cell_search,
        description="Directional sync-sweep discovery latency.",
    )
)

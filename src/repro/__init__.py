"""repro — Directional Beam Alignment for Millimeter Wave Cellular Systems.

A from-scratch reproduction of Zhao, Wang & Viswanathan (ICDCS 2016):
adaptive mmWave beam alignment that estimates the low-rank channel
covariance from a few power measurements (penalized ML with a
matrix-completion-style nuclear-norm prior) and uses the estimate to
steer which beam pairs get measured next.

Quickstart::

    import numpy as np
    from repro import (
        ChannelKind, ProposedAlignment, Scenario, ScenarioConfig,
        run_trial, standard_schemes,
    )

    scenario = Scenario(ScenarioConfig(channel=ChannelKind.MULTIPATH))
    outcomes = run_trial(
        scenario, standard_schemes(), search_rate=0.1,
        rng=np.random.default_rng(0),
    )
    for name, outcome in outcomes.items():
        print(f"{name:10s} loss = {outcome.loss_db:5.2f} dB")

See ``DESIGN.md`` for the full system inventory and ``EXPERIMENTS.md``
for the paper-vs-measured record.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_namespace

if TYPE_CHECKING:
    from repro.arrays.codebook import Codebook
    from repro.arrays.hierarchical import HierarchicalCodebook
    from repro.arrays.ula import UniformLinearArray
    from repro.arrays.upa import UniformPlanarArray
    from repro.arrays.steering import steering_vector
    from repro.baselines.genie import GenieAligner
    from repro.baselines.hierarchical_search import HierarchicalSearch
    from repro.baselines.local_refine import LocalRefineSearch
    from repro.baselines.random_search import RandomSearch
    from repro.baselines.scan_search import ScanSearch
    from repro.baselines.ucb import UcbSearch
    from repro.channel.base import ClusteredChannel, Subpath
    from repro.channel.clusters import ClusterParams
    from repro.channel.drift import DriftingChannelProcess
    from repro.channel.covariance import low_rank_summary
    from repro.channel.multipath import sample_nyc_channel
    from repro.core.base import AlignmentContext, BeamAlignmentAlgorithm
    from repro.core.result import AlignmentResult
    from repro.core.bidirectional import BidirectionalAlignment
    from repro.core.proposed import ProposedAlignment
    from repro.estimation.sample_covariance import BackProjectionEstimator
    from repro.estimation.ls_covariance import LsCovarianceEstimator
    from repro.estimation.ml_covariance import MlCovarianceEstimator
    from repro.measurement.budget import MeasurementBudget
    from repro.measurement.measurer import MeasurementEngine
    from repro.obs.recorder import (
        MetricsRecorder,
        NullRecorder,
        get_recorder,
        use_recorder,
    )
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import TraceRecorder
    from repro.sim.config import ChannelKind, ScenarioConfig
    from repro.sim.scenario import Scenario
    from repro.sim.sweep import effectiveness_sweep, required_search_rates
    from repro.sim.runner import run_trial, run_trials, standard_schemes
    from repro.sim.metrics import snr_loss_db
    from repro.types import BeamPair
    from repro.version import __version__

__all__ = [
    "Codebook",
    "HierarchicalCodebook",
    "UniformLinearArray",
    "UniformPlanarArray",
    "steering_vector",
    "GenieAligner",
    "HierarchicalSearch",
    "LocalRefineSearch",
    "RandomSearch",
    "ScanSearch",
    "UcbSearch",
    "ClusteredChannel",
    "ClusterParams",
    "DriftingChannelProcess",
    "Subpath",
    "low_rank_summary",
    "sample_nyc_channel",
    "AlignmentContext",
    "AlignmentResult",
    "BeamAlignmentAlgorithm",
    "BidirectionalAlignment",
    "ProposedAlignment",
    "BackProjectionEstimator",
    "LsCovarianceEstimator",
    "MlCovarianceEstimator",
    "MeasurementBudget",
    "MeasurementEngine",
    "MetricsRecorder",
    "MetricsRegistry",
    "NullRecorder",
    "TraceRecorder",
    "get_recorder",
    "use_recorder",
    "ChannelKind",
    "Scenario",
    "ScenarioConfig",
    "effectiveness_sweep",
    "required_search_rates",
    "run_trial",
    "run_trials",
    "snr_loss_db",
    "standard_schemes",
    "BeamPair",
    "__version__",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.arrays.codebook": ("Codebook",),
        "repro.arrays.hierarchical": ("HierarchicalCodebook",),
        "repro.arrays.ula": ("UniformLinearArray",),
        "repro.arrays.upa": ("UniformPlanarArray",),
        "repro.arrays.steering": ("steering_vector",),
        "repro.baselines.genie": ("GenieAligner",),
        "repro.baselines.hierarchical_search": ("HierarchicalSearch",),
        "repro.baselines.local_refine": ("LocalRefineSearch",),
        "repro.baselines.random_search": ("RandomSearch",),
        "repro.baselines.scan_search": ("ScanSearch",),
        "repro.baselines.ucb": ("UcbSearch",),
        "repro.channel.base": ("ClusteredChannel", "Subpath"),
        "repro.channel.clusters": ("ClusterParams",),
        "repro.channel.drift": ("DriftingChannelProcess",),
        "repro.channel.covariance": ("low_rank_summary",),
        "repro.channel.multipath": ("sample_nyc_channel",),
        "repro.core.base": ("AlignmentContext", "BeamAlignmentAlgorithm"),
        "repro.core.result": ("AlignmentResult",),
        "repro.core.bidirectional": ("BidirectionalAlignment",),
        "repro.core.proposed": ("ProposedAlignment",),
        "repro.estimation.sample_covariance": ("BackProjectionEstimator",),
        "repro.estimation.ls_covariance": ("LsCovarianceEstimator",),
        "repro.estimation.ml_covariance": ("MlCovarianceEstimator",),
        "repro.measurement.budget": ("MeasurementBudget",),
        "repro.measurement.measurer": ("MeasurementEngine",),
        "repro.obs.recorder": (
            "MetricsRecorder",
            "NullRecorder",
            "get_recorder",
            "use_recorder",
        ),
        "repro.obs.metrics": ("MetricsRegistry",),
        "repro.obs.trace": ("TraceRecorder",),
        "repro.sim.config": ("ChannelKind", "ScenarioConfig"),
        "repro.sim.scenario": ("Scenario",),
        "repro.sim.sweep": ("effectiveness_sweep", "required_search_rates"),
        "repro.sim.runner": ("run_trial", "run_trials", "standard_schemes"),
        "repro.sim.metrics": ("snr_loss_db",),
        "repro.types": ("BeamPair",),
        "repro.version": ("__version__",),
    },
)

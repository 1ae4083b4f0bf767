"""mmWave channel models: clustered geometry, fading, drift, covariance."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_namespace

if TYPE_CHECKING:
    from repro.channel.base import ClusteredChannel, Subpath
    from repro.channel.clusters import (
        ClusterParams,
        PathClusterSpec,
        sample_cluster_specs,
    )
    from repro.channel.drift import DriftingChannelProcess
    from repro.channel.covariance import LowRankSummary, low_rank_summary
    from repro.channel.multipath import sample_nyc_channel

__all__ = [
    "ClusteredChannel",
    "Subpath",
    "ClusterParams",
    "PathClusterSpec",
    "sample_cluster_specs",
    "DriftingChannelProcess",
    "LowRankSummary",
    "low_rank_summary",
    "sample_nyc_channel",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.channel.base": ("ClusteredChannel", "Subpath"),
        "repro.channel.clusters": (
            "ClusterParams",
            "PathClusterSpec",
            "sample_cluster_specs",
        ),
        "repro.channel.drift": ("DriftingChannelProcess",),
        "repro.channel.covariance": ("LowRankSummary", "low_rank_summary"),
        "repro.channel.multipath": ("sample_nyc_channel",),
    },
)

"""mmWave channel models: clustered geometry, fading, path loss, covariance."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_namespace

if TYPE_CHECKING:
    from repro.channel.base import ClusteredChannel, Subpath
    from repro.channel.clusters import (
        ClusterParams,
        PathClusterSpec,
        random_sector_direction,
        sample_cluster_specs,
        specs_to_subpaths,
    )
    from repro.channel.drift import DriftingChannelProcess
    from repro.channel.covariance import (
        LowRankSummary,
        eigenvalue_profile,
        low_rank_summary,
    )
    from repro.channel.multipath import sample_nyc_channel
    from repro.channel.noise import link_snr_db, link_snr_linear, thermal_noise_dbm
    from repro.channel.pathloss import (
        NYC_28GHZ_LOS,
        NYC_28GHZ_NLOS,
        NYC_73GHZ_LOS,
        NYC_73GHZ_NLOS,
        LinkState,
        NycPathLoss,
        NycPathLossParams,
        friis_path_loss_db,
    )
    from repro.channel.rayleigh import covariance_sqrt, sample_correlated_rayleigh
    from repro.channel.singlepath import sample_singlepath_channel

__all__ = [
    "ClusteredChannel",
    "Subpath",
    "ClusterParams",
    "PathClusterSpec",
    "random_sector_direction",
    "sample_cluster_specs",
    "specs_to_subpaths",
    "DriftingChannelProcess",
    "LowRankSummary",
    "eigenvalue_profile",
    "low_rank_summary",
    "sample_nyc_channel",
    "link_snr_db",
    "link_snr_linear",
    "thermal_noise_dbm",
    "NYC_28GHZ_LOS",
    "NYC_28GHZ_NLOS",
    "NYC_73GHZ_LOS",
    "NYC_73GHZ_NLOS",
    "LinkState",
    "NycPathLoss",
    "NycPathLossParams",
    "friis_path_loss_db",
    "covariance_sqrt",
    "sample_correlated_rayleigh",
    "sample_singlepath_channel",
]

__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.channel.base": ("ClusteredChannel", "Subpath"),
        "repro.channel.clusters": (
            "ClusterParams",
            "PathClusterSpec",
            "random_sector_direction",
            "sample_cluster_specs",
            "specs_to_subpaths",
        ),
        "repro.channel.drift": ("DriftingChannelProcess",),
        "repro.channel.covariance": (
            "LowRankSummary",
            "eigenvalue_profile",
            "low_rank_summary",
        ),
        "repro.channel.multipath": ("sample_nyc_channel",),
        "repro.channel.noise": ("link_snr_db", "link_snr_linear", "thermal_noise_dbm"),
        "repro.channel.pathloss": (
            "NYC_28GHZ_LOS",
            "NYC_28GHZ_NLOS",
            "NYC_73GHZ_LOS",
            "NYC_73GHZ_NLOS",
            "LinkState",
            "NycPathLoss",
            "NycPathLossParams",
            "friis_path_loss_db",
        ),
        "repro.channel.rayleigh": ("covariance_sqrt", "sample_correlated_rayleigh"),
        "repro.channel.singlepath": ("sample_singlepath_channel",),
    },
)

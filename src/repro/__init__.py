"""repro — a reproduction of Rosenberg & Chiang's heterogeneity framework.

This package implements, end to end, the analytical framework of

    A. L. Rosenberg and R. C. Chiang, *Toward Understanding Heterogeneity
    in Computing*, 24th IEEE Intl. Parallel & Distributed Processing
    Symposium (IPDPS), 2010,

together with every substrate the paper builds on: the
Adler–Gong–Rosenberg worksharing-protocol machinery for the
Cluster-Exploitation Problem, a discrete-event master–worker cluster
simulator, LP-based optimal scheduling for arbitrary protocols, speedup
(upgrade) analysis, and profile-based power predictors (symmetric
functions and statistical moments).

Quick start
-----------
>>> from repro import Profile, PAPER_TABLE1, hecr, work_rate
>>> cluster = Profile([1.0, 0.5, 1/3, 0.25])       # rho: time per work unit
>>> round(work_rate(cluster, PAPER_TABLE1), 2)     # work units per time unit
10.0
>>> round(hecr(cluster, PAPER_TABLE1), 3)          # equivalent homogeneous rate
0.4

See ``examples/`` for runnable scenarios and ``benchmarks/`` for the
scripts that regenerate every table and figure of the paper.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "ModelParams",
    "PAPER_TABLE1",
    "FIG34_CALIBRATION",
    "NEGLIGIBLE_OVERHEADS",
    "Profile",
    "x_measure",
    "work_rate",
    "work_production",
    "work_ratio",
    "homogeneous_x",
    "homogeneous_work_rate",
    "hecr",
    "hecr_from_x",
    "hecr_bisect",
    "ClusterComparison",
    "compare_clusters",
    # errors
    "ReproError",
    "InvalidParameterError",
    "InvalidProfileError",
    "InfeasibleScheduleError",
    "ProtocolError",
    "SimulationError",
    "SamplingError",
    "ExperimentError",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.compare": ("ClusterComparison", "compare_clusters"),
    "repro.core.hecr": ("hecr", "hecr_bisect", "hecr_from_x"),
    "repro.core.homogeneous": ("homogeneous_work_rate", "homogeneous_x"),
    "repro.core.measure": ("work_production", "work_rate", "work_ratio",
                           "x_measure"),
    "repro.core.params": ("FIG34_CALIBRATION", "NEGLIGIBLE_OVERHEADS",
                          "PAPER_TABLE1", "ModelParams"),
    "repro.core.profile": ("Profile",),
    "repro.errors": ("ExperimentError", "InfeasibleScheduleError",
                     "InvalidParameterError", "InvalidProfileError",
                     "ProtocolError", "ReproError", "SamplingError",
                     "SimulationError"),
})

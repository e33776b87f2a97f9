"""Core analytical framework: parameters, profiles, X-measure, HECR.

This subpackage implements the paper's primary mathematical objects:

* :class:`repro.core.params.ModelParams` — the architectural environment
  (τ, π, δ) with derived constants A and B (paper §2.1, Tables 1–2);
* :class:`repro.core.profile.Profile` — heterogeneity profiles (§1.1);
* :mod:`repro.core.measure` — the X-measure and work production
  (Theorem 2, eq. (1) and eq. (3));
* :mod:`repro.core.homogeneous` — homogeneous-cluster closed forms (eq. (2));
* :mod:`repro.core.hecr` — the Homogeneous-Equivalent Computing Rate
  (Proposition 1);
* :mod:`repro.core.batch_kernels` — columnar many-profile kernels
  (:class:`~repro.core.batch_kernels.ProfileBatch`): vectorised
  X/W/HECR, row statistics and pairwise predictor kernels, each
  bit-identical per row to its scalar counterpart (eq. (1) and
  Proposition 1 are each written once, there);
* :mod:`repro.core.exact` — exact-rational ground-truth evaluation.
"""

from repro._lazy import lazy_exports

# ``hecr`` is also a submodule's name: importing ``repro.core.hecr`` binds
# the module here, so the function is imported eagerly to stay bound.
from repro.core.hecr import hecr

__all__ = [
    "ModelParams",
    "ClusterComparison",
    "compare_clusters",
    "PAPER_TABLE1",
    "FIG34_CALIBRATION",
    "NEGLIGIBLE_OVERHEADS",
    "Profile",
    "ProfileBatch",
    "hecr_from_x_many",
    "moment_predictions",
    "variance_predictions",
    "minorization_predictions",
    "majorization_predictions",
    "x_measure",
    "XEvaluator",
    "work_rate",
    "work_production",
    "work_ratio",
    "XDecomposition",
    "x_decomposition",
    "homogeneous_x",
    "homogeneous_work_rate",
    "homogeneous_size_for_x",
    "hecr",
    "hecr_from_x",
    "hecr_bisect",
    "x_measure_exact",
    "work_rate_exact",
    "work_ratio_exact",
    "homogeneous_x_exact",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.batch_kernels": (
        "ProfileBatch", "hecr_from_x_many", "majorization_predictions",
        "minorization_predictions", "moment_predictions",
        "variance_predictions"),
    "repro.core.compare": ("ClusterComparison", "compare_clusters"),
    "repro.core.exact": ("homogeneous_x_exact", "work_rate_exact",
                         "work_ratio_exact", "x_measure_exact"),
    "repro.core.hecr": ("hecr_bisect", "hecr_from_x"),
    "repro.core.homogeneous": ("homogeneous_size_for_x",
                               "homogeneous_work_rate", "homogeneous_x"),
    "repro.core.measure": ("XDecomposition", "XEvaluator", "work_production",
                           "work_rate", "work_ratio", "x_decomposition",
                           "x_measure"),
    "repro.core.params": ("FIG34_CALIBRATION", "NEGLIGIBLE_OVERHEADS",
                          "PAPER_TABLE1", "ModelParams"),
    "repro.core.profile": ("Profile",),
})

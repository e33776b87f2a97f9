"""Experiment registry: one runner per table/figure of the paper.

Every experiment id is registered up front as a lazy ``"module:function"``
entry (see :mod:`repro.experiments.base`); importing this package loads
no runner module.  A runner's module — and whatever it needs, such as
the LP solver — is imported the first time the id is looked up or a
name below is accessed:

========================  =====================================================
id                        reproduces
========================  =====================================================
``table1``                Table 1 — model parameters
``table2``                Table 2 — derived constants A, B
``table3``                Table 3 — HECRs of the linear/harmonic clusters
``table4``                Table 4 — additive-speedup work ratios
``fig3``                  Figure 3 — multiplicative speedups, phase 1
``fig4``                  Figure 4 — multiplicative speedups, phase 2
``sec4-example``          §4 — ⟨0.99, 0.02⟩ vs ⟨0.5, 0.5⟩
``variance-trials``       §4.3 — variance-predictor accuracy vs cluster size
``variance-threshold``    §4.3 — the θ = 0.167 perfect-prediction threshold
``protocol-optimality``   Theorem 1 — FIFO optimality/invariance (ablation)
``saturation``            extension — the 1/(A−τδ) ceiling, diminishing returns
``heterogeneity-gain``    extension — Corollary 1 quantified across (mean, spread)
``moment-ablation``       extension — which moment predicts power best ([13]'s study)
``failure-resilience``    extension — cost of a mid-round worker crash
``majorization``          extension — the partial order behind Theorem 5
``tau-sweep``             extension — environment sensitivity across network speeds
``failure-rate-sweep``    extension — expected work under random crashes
``coded-resilience``      extension — proactive redundancy vs recovery
``stream-replay``         extension — online calibration payoff under drift
========================  =====================================================
"""

from repro._lazy import lazy_exports

__all__ = [
    "ExperimentResult",
    "ShardSpec",
    "register",
    "get_experiment",
    "get_shard_spec",
    "list_experiments",
    "run_experiment",
    "run_sharded",
    "render_table",
    "render_profile_bars",
    "render_snapshot_strip",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_fig3",
    "run_fig4",
    "run_minorization_demo",
    "run_variance_trials",
    "run_threshold",
    "run_protocol_optimality",
    "run_saturation",
    "run_heterogeneity_gain",
    "run_moment_ablation",
    "run_failure_resilience",
    "run_majorization_study",
    "run_tau_sweep",
    "run_failure_rate_sweep",
    "run_coded_resilience",
    "run_stream_replay",
    "collect_trials",
    "trial_shards",
    "run_trial_shard",
    "merge_trial_batches",
    "TrialBatch",
    "PAPER_TABLE3_VALUES",
    "PAPER_TABLE4_RATIOS",
    "PAPER_THETA",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.experiments.base": (
        "ExperimentResult", "ShardSpec", "get_experiment", "get_shard_spec",
        "list_experiments", "register", "run_experiment", "run_sharded"),
    "repro.experiments.barchart": ("render_profile_bars", "render_snapshot_strip"),
    "repro.experiments.coded_resilience": ("run_coded_resilience",),
    "repro.experiments.failure_rate_sweep": ("run_failure_rate_sweep",),
    "repro.experiments.failure_resilience": ("run_failure_resilience",),
    "repro.experiments.fig3": ("run_fig3",),
    "repro.experiments.fig4": ("run_fig4",),
    "repro.experiments.heterogeneity_gain": ("run_heterogeneity_gain",),
    "repro.experiments.majorization_study": ("run_majorization_study",),
    "repro.experiments.minorization_demo": ("run_minorization_demo",),
    "repro.experiments.moment_ablation": ("run_moment_ablation",),
    "repro.experiments.params_tables": ("run_table1", "run_table2"),
    "repro.experiments.protocol_optimality": ("run_protocol_optimality",),
    "repro.experiments.saturation": ("run_saturation",),
    "repro.experiments.sensitivity_sweep": ("run_tau_sweep",),
    "repro.experiments.stream_replay": ("run_stream_replay",),
    "repro.experiments.table3": ("PAPER_TABLE3_VALUES", "run_table3"),
    "repro.experiments.table4": ("PAPER_TABLE4_RATIOS", "run_table4"),
    "repro.experiments.threshold": ("PAPER_THETA", "run_threshold"),
    "repro.experiments.variance_trials": (
        "TrialBatch", "collect_trials", "merge_trial_batches",
        "run_trial_shard", "run_variance_trials", "trial_shards"),
    "repro.experiments.tables": ("render_table",),
})

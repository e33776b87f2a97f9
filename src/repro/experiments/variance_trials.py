"""The §4.3 variance-predictor trials.

For each cluster size n, generate random equal-mean cluster pairs and
label each pair "good" when the larger-variance cluster is the more
powerful one (smaller HECR / larger X), "bad" otherwise.  The paper
reports, for n = 2^k, k = 2 … 16:

* "bad" pairs exist at every size (Theorem 5(2) does not generalise);
* the bad fraction grows to ≈23% (plateau reached at n = 128) — i.e.
  variance is right ≈76–77% of the time;
* bad pairs have *small* HECR gaps.

:func:`run_variance_trials` reproduces all three findings and, as an
ablation, scores the alternative moment predictors of
:data:`repro.predictors.variance.MOMENT_PREDICTORS` on the same pairs.

Sharding
--------
The trial loop is embarrassingly parallel, so the experiment is defined
as a *sharded* computation: :func:`trial_shards` decomposes the run into
``(size, strategy, chunk-of-trials)`` cells, each seeded by its own
child of ``np.random.SeedSequence(seed).spawn(...)``, and the experiment
merges the per-cell :class:`TrialBatch` payloads.  The decomposition
depends only on the experiment kwargs — never on worker count — so a
sequential run and :mod:`repro.batch`'s process-pool fan-out produce
bit-identical statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.batch_kernels import ProfileBatch, moment_predictions
from repro.core.params import PAPER_TABLE1, ModelParams
from repro.errors import ExperimentError
from repro.experiments.base import (ExperimentResult, ShardSpec, register,
                                    run_sharded)
from repro.predictors.variance import MOMENT_PREDICTORS
from repro.sampling.equal_mean import equal_mean_pair

__all__ = ["run_variance_trials", "TrialBatch", "collect_trials",
           "trial_shards", "run_trial_shard", "merge_trial_batches",
           "TRIALS_PER_SHARD"]

#: Default sizes: powers of two as in the paper (truncated so the default
#: run stays laptop-quick; pass larger sizes explicitly to go to 2^16).
DEFAULT_SIZES = (4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: Shard granularity: each (size, strategy) cell is cut into chunks of at
#: most this many trials, so a worker pool has enough independent pieces
#: to load-balance even when one cluster size dominates the cost.
TRIALS_PER_SHARD = 100


@dataclass(frozen=True)
class TrialBatch:
    """All trials for one cluster size, in vectorised form.

    Attributes
    ----------
    n:
        Cluster size.
    variance_gaps:
        ``|VAR(P₁) − VAR(P₂)|`` per trial.
    good:
        Boolean per trial: did variance predict the winner?
    hecr_gaps:
        ``|HECR(P₁) − HECR(P₂)|`` per trial.
    predictor_scores:
        Fraction correct for each alternative moment predictor.
    """

    n: int
    variance_gaps: np.ndarray
    good: np.ndarray
    hecr_gaps: np.ndarray
    predictor_scores: dict[str, float]

    @property
    def n_trials(self) -> int:
        return int(self.good.size)

    @property
    def fraction_good(self) -> float:
        return float(self.good.mean())

    @property
    def mean_bad_hecr_gap(self) -> float:
        """Average HECR gap among the bad pairs (NaN if none).

        NaN gaps (saturated clusters beyond any homogeneous equivalent)
        are excluded from the average.
        """
        return self._gap_mean(~self.good)

    @property
    def mean_good_hecr_gap(self) -> float:
        """Average HECR gap among the good pairs (NaN if none)."""
        return self._gap_mean(self.good)

    def _gap_mean(self, mask: np.ndarray) -> float:
        selected = self.hecr_gaps[mask]
        selected = selected[~np.isnan(selected)]
        if selected.size == 0:
            return float("nan")
        return float(selected.mean())


def collect_trials(rng: np.random.Generator, n: int, n_trials: int,
                   params: ModelParams, *, strategy: str = "mixed"
                   ) -> TrialBatch:
    """Run ``n_trials`` §4.3 trials at cluster size ``n``, vectorised.

    Pairs whose variances tie exactly (measure-zero) are regenerated.
    """
    if n_trials < 1:
        raise ExperimentError(f"n_trials must be >= 1, got {n_trials}")
    profiles_a = np.empty((n_trials, n))
    profiles_b = np.empty((n_trials, n))
    for t in range(n_trials):
        while True:
            p1, p2 = equal_mean_pair(rng, n, strategy=strategy)
            if p1.variance != p2.variance:
                break
        profiles_a[t] = p1.rho
        profiles_b[t] = p2.rho

    # One columnar pass per side: X, HECR, variances and every moment
    # predictor reduce the same ProfileBatch — each bit-identical to the
    # per-pair scalar loop this replaces.
    batch_a = ProfileBatch(profiles_a, copy=False)
    batch_b = ProfileBatch(profiles_b, copy=False)
    var_a = batch_a.variances()
    var_b = batch_b.variances()
    x_a = batch_a.x(params)
    x_b = batch_b.x(params)
    h_a = batch_a.hecr(params, x=x_a)
    h_b = batch_b.hecr(params, x=x_b)

    actual_first = x_a > x_b                 # ground truth: P₁ more powerful
    predicted_first = var_a > var_b          # variance's call
    good = predicted_first == actual_first

    winner = np.where(actual_first, 0, 1)    # the call that scores a hit
    predictor_scores = {
        name: int(np.count_nonzero(
            moment_predictions(batch_a, batch_b, name) == winner)) / n_trials
        for name in MOMENT_PREDICTORS
    }

    return TrialBatch(
        n=n,
        variance_gaps=np.abs(var_a - var_b),
        good=good,
        hecr_gaps=np.abs(h_a - h_b),
        predictor_scores=predictor_scores,
    )


def _chunk_counts(total: int, chunk: int = TRIALS_PER_SHARD) -> list[int]:
    """Canonical chunking of ``total`` trials: full chunks, then the rest."""
    if total < 1:
        raise ExperimentError(f"trials_per_size must be >= 1, got {total}")
    counts = [chunk] * (total // chunk)
    if total % chunk:
        counts.append(total % chunk)
    return counts


def trial_shards(*, sizes: Sequence[int], trials_per_size: int, seed: int,
                 strategies: Sequence[str], params: ModelParams) -> list[dict]:
    """The canonical shard plan for a §4.3-style trial study.

    One shard per ``(size, strategy, chunk)`` cell, in size-major order,
    each carrying its own child of ``SeedSequence(seed).spawn(...)``.
    The plan is a pure function of the experiment kwargs, which is what
    makes sequential and parallel execution statistically identical.
    """
    shards = []
    for n in sizes:
        for strategy in strategies:
            for chunk_trials in _chunk_counts(trials_per_size):
                shards.append({"n": int(n), "strategy": strategy,
                               "chunk_trials": chunk_trials, "params": params})
    for shard, seed_seq in zip(shards,
                               np.random.SeedSequence(seed).spawn(len(shards))):
        shard["seed_seq"] = seed_seq
    return shards


def run_trial_shard(*, n: int, strategy: str, chunk_trials: int,
                    seed_seq: np.random.SeedSequence,
                    params: ModelParams) -> TrialBatch:
    """Execute one shard of the trial plan (picklable worker entry point)."""
    rng = np.random.default_rng(seed_seq)
    return collect_trials(rng, n, chunk_trials, params, strategy=strategy)


def merge_trial_batches(batches: Sequence[TrialBatch]) -> TrialBatch:
    """Recombine same-size chunk batches into one.

    Arrays concatenate in shard order; predictor scores recombine
    exactly by recovering integer hit counts from each chunk's fraction.
    """
    if not batches:
        raise ExperimentError("cannot merge zero trial batches")
    if len({b.n for b in batches}) != 1:
        raise ExperimentError("cannot merge trial batches of different sizes")
    if len(batches) == 1:
        return batches[0]
    total = sum(b.n_trials for b in batches)
    scores = {name: sum(round(b.predictor_scores[name] * b.n_trials)
                        for b in batches) / total
              for name in batches[0].predictor_scores}
    return TrialBatch(
        n=batches[0].n,
        variance_gaps=np.concatenate([b.variance_gaps for b in batches]),
        good=np.concatenate([b.good for b in batches]),
        hecr_gaps=np.concatenate([b.hecr_gaps for b in batches]),
        predictor_scores=scores,
    )


def _split_variance_trials(params: ModelParams = PAPER_TABLE1,
                           sizes: Sequence[int] = DEFAULT_SIZES,
                           trials_per_size: int = 400,
                           seed: int = 2010,
                           strategy: str = "mixed") -> list[dict]:
    return trial_shards(sizes=sizes, trials_per_size=trials_per_size,
                        seed=seed, strategies=(strategy,), params=params)


def _merge_variance_trials(payloads: Sequence[TrialBatch],
                           params: ModelParams = PAPER_TABLE1,
                           sizes: Sequence[int] = DEFAULT_SIZES,
                           trials_per_size: int = 400,
                           seed: int = 2010,
                           strategy: str = "mixed") -> ExperimentResult:
    per_size: dict[int, list[TrialBatch]] = {}
    for batch in payloads:
        per_size.setdefault(batch.n, []).append(batch)
    rows = []
    batches: list[TrialBatch] = []
    for n in sizes:
        batch = merge_trial_batches(per_size[int(n)])
        batches.append(batch)
        rows.append((
            n,
            batch.n_trials,
            round(100.0 * batch.fraction_good, 1),
            round(100.0 * (1.0 - batch.fraction_good), 1),
            round(batch.mean_bad_hecr_gap, 6),
            round(batch.mean_good_hecr_gap, 6),
            round(batch.predictor_scores["geometric-mean"] * 100.0, 1),
        ))
    overall_good = float(np.mean(np.concatenate([b.good for b in batches])))
    plateau = [b.fraction_good for b in batches if b.n >= 128]
    return ExperimentResult(
        experiment_id="variance-trials",
        title="Variance as a predictor of power among equal-mean clusters (paper §4.3)",
        headers=("n", "trials", "good %", "bad %", "mean HECR gap (bad)",
                 "mean HECR gap (good)", "geo-mean predictor %"),
        rows=rows,
        notes=(
            f"overall accuracy {100 * overall_good:.1f}% — paper reports ≈76–77% "
            f"with a bad-pair plateau of ≈23% from n = 128",
            "bad pairs show systematically smaller HECR gaps than good pairs, "
            "matching the paper's observation",
            "exact percentages depend on the (unpublished) pair-generation "
            "distribution — see DESIGN.md substitution 2",
        ),
        metadata={
            "batches": batches,
            "overall_good": overall_good,
            "plateau_good": plateau,
            "seed": seed,
            "strategy": strategy,
            "params": params,
        },
    )


VARIANCE_TRIALS_SHARDS = ShardSpec(split=_split_variance_trials,
                                   runner=run_trial_shard,
                                   merge=_merge_variance_trials)


@register("variance-trials", shardable=VARIANCE_TRIALS_SHARDS)
def run_variance_trials(params: ModelParams = PAPER_TABLE1,
                        sizes: Sequence[int] = DEFAULT_SIZES,
                        trials_per_size: int = 400,
                        seed: int = 2010,
                        strategy: str = "mixed") -> ExperimentResult:
    """Reproduce the §4.3 accuracy-vs-size study (plus moment ablation).

    Defined as the merge of its shard plan (see the module docstring),
    so this sequential entry point and a parallel batch run agree
    bit-for-bit.
    """
    return run_sharded(VARIANCE_TRIALS_SHARDS, params=params, sizes=sizes,
                       trials_per_size=trials_per_size, seed=seed,
                       strategy=strategy)

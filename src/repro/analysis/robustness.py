"""Statistical robustness: expected work under random worker failures.

The failure-resilience experiment crashes chosen workers at chosen
times; operators think in *rates*.  This module Monte-Carlo-estimates a
schedule's expected completed work when each worker independently fails
at an exponential rate, under either result-sequencing policy, and
summarises the distribution (mean, standard error, quantiles).

The strict-FIFO tail risk is vivid here: because one early crash can
forfeit the whole round, the strict policy's *distribution* is bimodal
long before its *mean* looks alarming.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import InvalidParameterError
from repro.faults.models import PermanentCrash
from repro.faults.spec import FaultScenario
from repro.protocols.base import WorkAllocation
from repro.simulation.runner import simulate_allocation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.recovery import RecoveryPolicy

__all__ = ["RobustnessEstimate", "expected_work_under_failures",
           "completed_work_for_failure_times"]


@dataclass(frozen=True)
class RobustnessEstimate:
    """Monte-Carlo summary of completed work under random failures.

    Attributes
    ----------
    samples:
        The raw per-trial completed-work values.
    failure_rate:
        The per-worker exponential failure rate used.
    """

    samples: np.ndarray
    failure_rate: float
    skip_failed_results: bool

    @property
    def mean(self) -> float:
        return float(self.samples.mean())

    @property
    def std_error(self) -> float:
        if self.samples.size < 2:
            return float("nan")
        return float(self.samples.std(ddof=1) / np.sqrt(self.samples.size))

    def quantile(self, q: float) -> float:
        """Distribution quantile of completed work (q in [0, 1])."""
        if not (0.0 <= q <= 1.0):
            raise InvalidParameterError(f"quantile must lie in [0, 1], got {q!r}")
        return float(np.quantile(self.samples, q))

    @property
    def fraction_total_loss(self) -> float:
        """Share of trials completing (essentially) nothing."""
        return float(np.mean(self.samples <= 1e-12))


def completed_work_for_failure_times(allocation: WorkAllocation,
                                     failure_times: np.ndarray,
                                     *, skip_failed_results: bool = False,
                                     recovery: "RecoveryPolicy | None" = None
                                     ) -> np.ndarray:
    """Completed work for each row of a ``(trials, n)`` failure-time array.

    A worker whose failure time is at or beyond the lifespan never
    fails (so ``np.inf`` means "healthy").  Separating the draw from
    the evaluation lets callers reuse *one* set of base exponential
    draws across a whole rate sweep (scale-coupled sampling) or across
    shards of a batch run — which is what keeps sharded Monte-Carlo
    sweeps bit-identical to their sequential counterparts.

    With ``recovery`` given, each trial runs the full multi-round
    rescheduler (:func:`repro.faults.recovery.simulate_with_recovery`)
    instead of the single-round simulator, and the sample counts work
    completed across all rounds.
    """
    failure_times = np.asarray(failure_times, dtype=float)
    if failure_times.ndim != 2 or failure_times.shape[1] != allocation.n:
        raise InvalidParameterError(
            f"failure_times must have shape (trials, {allocation.n}), "
            f"got {failure_times.shape}")
    L = allocation.lifespan
    samples = np.empty(failure_times.shape[0])
    for k, times in enumerate(failure_times):
        scenario = FaultScenario(faults=tuple(
            PermanentCrash(c, float(t)) for c, t in enumerate(times) if t < L))
        if recovery is not None:
            from repro.faults.recovery import simulate_with_recovery
            outcome = simulate_with_recovery(allocation, scenario)
            samples[k] = outcome.completed_work
        else:
            # A crash-free trial runs fault-free (the analytic fast path
            # under the default engine), exactly as a healthy round.
            result = simulate_allocation(
                allocation, faults=scenario if scenario.faults else None,
                skip_failed_results=skip_failed_results)
            samples[k] = result.completed_work
    return samples


def expected_work_under_failures(allocation: WorkAllocation,
                                 failure_rate: float,
                                 rng: np.random.Generator,
                                 n_samples: int = 200,
                                 *, skip_failed_results: bool = False,
                                 recovery: "RecoveryPolicy | None" = None
                                 ) -> RobustnessEstimate:
    """Estimate E[completed work] with i.i.d. exponential worker failures.

    Parameters
    ----------
    allocation:
        The schedule to stress.
    failure_rate:
        Each worker's failure intensity (events per time unit); a worker
        whose sampled failure time exceeds the lifespan never fails.
        Zero is allowed (degenerates to the failure-free run).
    rng:
        Randomness source (pass a seeded Generator for reproducibility).
    n_samples:
        Monte-Carlo trials.
    skip_failed_results:
        Result-sequencer recovery policy (see
        :func:`repro.simulation.runner.simulate_allocation`).
    recovery:
        When given, each trial runs the multi-round rescheduler under
        this policy and the estimate counts work recovered in later
        rounds too.
    """
    if failure_rate < 0:
        raise InvalidParameterError(
            f"failure_rate must be nonnegative, got {failure_rate!r}")
    if n_samples < 1:
        raise InvalidParameterError(f"n_samples must be >= 1, got {n_samples}")
    n = allocation.n
    if failure_rate > 0.0:
        times = rng.exponential(1.0 / failure_rate, size=(n_samples, n))
    else:
        times = np.full((n_samples, n), np.inf)
    samples = completed_work_for_failure_times(
        allocation, times, skip_failed_results=skip_failed_results,
        recovery=recovery)
    return RobustnessEstimate(samples=samples, failure_rate=failure_rate,
                              skip_failed_results=skip_failed_results)

"""Ablation: failure resilience of FIFO worksharing (extension).

The FIFO protocol's optimality rests on a strict finishing-order
contract, which buys throughput but concentrates risk: a worker that
dies before delivering stalls *every* result queued behind it.  This
experiment crashes each computer in turn at the midpoint of its busy
period and tabulates the work salvaged under (a) the strict protocol
and (b) a skip-the-dead recovery heuristic — quantifying a fragility
the paper's asymptotic analysis abstracts away.

With a *fault scenario* (the ``--faults`` grammar or a
:class:`~repro.faults.spec.FaultScenario`), the experiment changes
shape: instead of the one-crash-per-row sweep it runs the given mix of
transient/straggler/channel faults under the strict contract, the
skip-the-dead heuristic, and full multi-round recovery
(:func:`~repro.faults.recovery.simulate_with_recovery`), tabulating one
row per policy with the recovery telemetry alongside.  Because the
paper's FIFO allocation saturates the lifespan exactly (zero slack, so
*any* delay forfeits work and leaves no residual time to recover in),
the fault mode provisions headroom: it allocates for ``margin · L`` and
judges completion against the full ``L``, with work-conserving (greedy)
result sequencing — the posture a fault-tolerant operator would
actually run.  Scenario materialisation is seeded, so the rows are
bit-identical under any ``--jobs`` count.
"""

from __future__ import annotations

from repro.core.params import ModelParams
from repro.core.profile import Profile
from repro.experiments.base import ExperimentResult, register
from repro.faults.models import PermanentCrash
from repro.faults.recovery import RecoveryPolicy, simulate_with_recovery
from repro.faults.spec import FaultScenario, parse_faults
from repro.protocols.base import WorkAllocation
from repro.protocols.fifo import fifo_allocation
from repro.protocols.timeline import build_timeline
from repro.simulation.runner import simulate_allocation

__all__ = ["run_failure_resilience"]


@register("failure-resilience")
def run_failure_resilience(tau: float = 0.02, pi: float = 0.002,
                           delta: float = 1.0,
                           lifespan: float = 60.0,
                           faults: "str | FaultScenario | None" = None,
                           margin: float = 0.8) -> ExperimentResult:
    """Crash each computer mid-busy-period; tabulate the salvage rates.

    With ``faults`` given, run that scenario under the three policies
    instead (see the module docstring); ``margin`` is the fault mode's
    provisioning headroom and is ignored otherwise.
    """
    params = ModelParams(tau=tau, pi=pi, delta=delta)
    profile = Profile([1.0, 1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0])
    if faults is not None:
        plan = fifo_allocation(profile, params, margin * lifespan)
        alloc = WorkAllocation(profile=profile, params=params,
                               lifespan=lifespan, w=plan.w,
                               startup_order=plan.startup_order,
                               finishing_order=plan.finishing_order,
                               protocol_name="fifo-margin")
        return _run_fault_scenario(alloc, params, faults, margin)
    alloc = fifo_allocation(profile, params, lifespan)
    timeline = build_timeline(alloc)
    total = alloc.total_work

    rows = []
    strict_salvages = []
    for c in range(profile.n):
        busy = [iv for iv in timeline.for_computer(c) if iv.kind == "busy"]
        if not busy:
            # The allocation gave this computer no busy period (tiny
            # lifespan or zero quantum): there is nothing to crash and
            # nothing to salvage — report the zero-salvage row rather
            # than dying on busy[0].
            strict_salvages.append(0.0)
            rows.append((f"C{c + 1}", round(float(profile.rho[c]), 4),
                         c + 1, 0.0, 0.0))
            continue
        crash = FaultScenario(faults=(
            PermanentCrash(c, 0.5 * (busy[0].start + busy[0].end)),))
        strict = simulate_allocation(alloc, faults=crash)
        skip = simulate_allocation(alloc, faults=crash,
                                   skip_failed_results=True)
        strict_pct = 100.0 * strict.completed_work / total
        skip_pct = 100.0 * skip.completed_work / total
        strict_salvages.append(strict_pct)
        rows.append((f"C{c + 1}", round(float(profile.rho[c]), 4),
                     c + 1, round(strict_pct, 1), round(skip_pct, 1)))

    return ExperimentResult(
        experiment_id="failure-resilience",
        title="What one mid-round crash costs FIFO worksharing [extension]",
        headers=("crashed", "rho", "finishing position", "strict salvage %",
                 "skip-recovery salvage %"),
        rows=rows,
        notes=(
            "strict FIFO loses everything queued behind the failure: a "
            "crash of the FIRST finisher forfeits the whole round, while "
            "the LAST finisher's crash costs only its own quantum",
            "the skip heuristic always salvages all but the dead quantum — "
            "the gap is the price of the finishing-order contract",
            f"profile ⟨1, 1/2, 1/3, 1/4⟩, τ={tau:g}, π={pi:g}, δ={delta:g}, "
            f"L={lifespan:g}",
        ),
        metadata={"strict_salvage_pct": strict_salvages,
                  "total_work": total, "params": params},
    )


def _run_fault_scenario(alloc, params: ModelParams,
                        faults: "str | FaultScenario",
                        margin: float) -> ExperimentResult:
    """The ``--faults`` mode: one row per recovery policy."""
    scenario = parse_faults(faults) if isinstance(faults, str) else faults
    materialized = scenario.materialize(alloc.n, alloc.lifespan)
    total = alloc.total_work

    strict = simulate_allocation(alloc, faults=materialized,
                                 results_policy="greedy")
    skip = simulate_allocation(alloc, faults=materialized,
                               results_policy="greedy",
                               skip_failed_results=True)
    outcome = simulate_with_recovery(alloc, materialized,
                                     policy=RecoveryPolicy(),
                                     results_policy="greedy")
    telemetry = outcome.telemetry

    def pct(work: float) -> float:
        return round(100.0 * work / total, 1)

    rows = [
        ("strict", pct(strict.completed_work), 1, 0,
         strict.retransmits, strict.messages_lost, 0.0),
        ("skip-failed", pct(skip.completed_work), 1, 0,
         skip.retransmits, skip.messages_lost, 0.0),
        ("recovery", pct(outcome.completed_work), telemetry.rounds,
         telemetry.retries, telemetry.retransmits, telemetry.messages_lost,
         round(telemetry.work_recovered, 4)),
    ]
    return ExperimentResult(
        experiment_id="failure-resilience",
        title="Fault scenario under strict / skip / multi-round recovery "
              "[extension]",
        headers=("policy", "completed %", "rounds", "retries", "retransmits",
                 "messages lost", "work recovered"),
        rows=rows,
        notes=(
            "same materialised fault scenario feeds all three policies, so "
            "the rows differ only by the server's recovery machinery",
            "recovery reallocates lost quanta across survivors with the "
            "FIFO allocator on the residual lifespan (multi-round)",
            f"allocation provisioned with {margin:g}·L headroom, greedy "
            f"result sequencing (see module docstring)",
            f"faults injected: {materialized.faults_injected}; "
            f"crashed computers: {list(outcome.crashed_computers)}",
        ),
        metadata={"total_work": total, "params": params, "margin": margin,
                  "faults_injected": materialized.faults_injected,
                  "recovery": telemetry.as_dict()},
    )

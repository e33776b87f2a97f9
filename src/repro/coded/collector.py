"""Fastest-k completion semantics over simulated share deliveries.

A :class:`~repro.coded.schemes.CodedPlan` hands the simulator an
ordinary :class:`~repro.protocols.base.WorkAllocation` — every share is
just a quantum, so the full fault grammar (crash / outage / degraded /
channel loss + retransmission) applies unchanged.  What changes is the
*accounting*: a coded quantum is done at its k-th distinct share
delivery, not when any particular worker reports.  The
:class:`CodedCollector` replays a :class:`SimulationResult`'s worker
records against the plan's group structure and produces per-quantum
delivery timelines; :func:`simulate_coded` wraps run + collect and
publishes ``sim_coded_*`` counters and a ``sim.coded`` span through the
observability stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.coded.schemes import CodedPlan, CodedQuantum
from repro.faults.spec import FaultScenario, MaterializedFaults, parse_faults
from repro.obs.tracing import SimulationObserver, current_observation
from repro.simulation.runner import SimulationResult, simulate_allocation

__all__ = ["QuantumStatus", "CodedOutcome", "CodedCollector",
           "simulate_coded"]


@dataclass(frozen=True)
class QuantumStatus:
    """One coded quantum's observed delivery timeline.

    ``deliveries`` holds ``(computer, time)`` pairs for every member
    share that fully reached the server within the lifespan, sorted by
    arrival; the quantum decodes at the k-th entry.
    """

    quantum: CodedQuantum
    deliveries: tuple[tuple[int, float], ...]

    @property
    def completed(self) -> bool:
        return len(self.deliveries) >= self.quantum.k

    @property
    def completion_time(self) -> float:
        """Instant of the k-th distinct delivery (NaN if never reached)."""
        if not self.completed:
            return math.nan
        return self.deliveries[self.quantum.k - 1][1]


@dataclass(frozen=True)
class CodedOutcome:
    """A coded run: the raw simulation plus per-quantum decode status."""

    plan: CodedPlan
    result: SimulationResult
    statuses: tuple[QuantumStatus, ...]

    @property
    def completed_work(self) -> float:
        """Useful work units decoded (quanta that reached quorum)."""
        return float(sum(s.quantum.work for s in self.statuses
                         if s.completed))

    @property
    def completed_quanta(self) -> int:
        return sum(1 for s in self.statuses if s.completed)

    @property
    def shares_delivered(self) -> int:
        """Member shares that fully reached the server, decoded or not."""
        return sum(len(s.deliveries) for s in self.statuses)

    @property
    def delivered_share_work(self) -> float:
        """Work units of share mass the cluster actually delivered."""
        return float(sum(s.quantum.share * len(s.deliveries)
                         for s in self.statuses))

    @property
    def waste_work(self) -> float:
        """Delivered share mass that did not become useful decoded work."""
        return max(0.0, self.delivered_share_work - self.completed_work)

    @property
    def realized_waste_fraction(self) -> float:
        """``1 − useful/delivered`` over what actually arrived."""
        delivered = self.delivered_share_work
        if delivered <= 0.0:
            return 0.0
        return 1.0 - self.completed_work / delivered

    @property
    def makespan(self) -> float:
        """Last decode instant across completed quanta (0 if none)."""
        times = [s.completion_time for s in self.statuses if s.completed]
        return max(times) if times else 0.0


class CodedCollector:
    """Applies a plan's fastest-k semantics to simulated worker records."""

    def __init__(self, plan: CodedPlan) -> None:
        self._plan = plan

    def collect(self, result: SimulationResult) -> tuple[QuantumStatus, ...]:
        """Group ``result``'s completed shares into quantum timelines."""
        deliveries: dict[int, list[tuple[float, int]]] = {
            q.index: [] for q in self._plan.quanta}
        members = {q.index: set(q.members) for q in self._plan.quanta}
        for record in result.records:
            if not record.completed:
                continue
            q_index = self._plan.quantum_of[record.computer]
            if q_index < 0 or record.computer not in members[q_index]:
                continue
            deliveries[q_index].append(
                (float(record.result_end), record.computer))
        statuses = []
        for q in self._plan.quanta:
            arrived = sorted(deliveries[q.index])
            statuses.append(QuantumStatus(
                quantum=q,
                deliveries=tuple((c, t) for t, c in arrived)))
        return tuple(statuses)


def simulate_coded(plan: CodedPlan,
                   faults: "FaultScenario | MaterializedFaults | str | None" = None,
                   *, results_policy: str = "greedy",
                   observer: SimulationObserver | None = None,
                   engine: str = "auto") -> CodedOutcome:
    """Execute a coded plan under ``faults`` with fastest-k accounting.

    The share layout runs through :func:`simulate_allocation` with the
    skip-failed sequencer (a server running redundancy has, a fortiori,
    given up on the strict finishing-order contract), then the
    collector decides which quanta reached quorum.  Outcome metrics are
    recorded into the observer's (or ambient) registry as
    ``sim_coded_*`` counters, under a ``sim.coded`` span when a tracer
    is present.
    """
    if isinstance(faults, str):
        faults = parse_faults(faults)
    if isinstance(faults, FaultScenario):
        faults = faults.materialize(plan.allocation.n, plan.allocation.lifespan)

    tracer = observer.tracer if observer is not None else None
    if tracer is None:
        ctx = current_observation()
        tracer = ctx.tracer if ctx is not None else None

    def run() -> CodedOutcome:
        result = simulate_allocation(plan.allocation, faults=faults,
                                     results_policy=results_policy,
                                     skip_failed_results=True,
                                     observer=observer, engine=engine)
        statuses = CodedCollector(plan).collect(result)
        return CodedOutcome(plan=plan, result=result, statuses=statuses)

    if tracer is None:
        outcome = run()
    else:
        with tracer.span("sim.coded", scheme=plan.scheme.label,
                         quanta=len(plan.quanta)) as attrs:
            outcome = run()
            attrs["completed_quanta"] = outcome.completed_quanta
            attrs["completed_work"] = outcome.completed_work
            attrs["waste_work"] = outcome.waste_work
    _record_coded_metrics(outcome, observer)
    return outcome


def _record_coded_metrics(outcome: CodedOutcome,
                          observer: SimulationObserver | None) -> None:
    """Fold coded-run accounting into the observer or ambient registry."""
    registry = observer.registry if observer is not None else None
    if registry is None:
        ctx = current_observation()
        registry = ctx.registry if ctx is not None else None
    if registry is None:
        return
    registry.counter("sim_coded_quanta_total",
                     "coded quanta provisioned").inc(len(outcome.statuses))
    if outcome.completed_quanta:
        registry.counter("sim_coded_quanta_completed_total",
                         "coded quanta that reached their delivery quorum"
                         ).inc(outcome.completed_quanta)
    if outcome.shares_delivered:
        registry.counter("sim_coded_shares_delivered_total",
                         "coded shares fully delivered to the server"
                         ).inc(outcome.shares_delivered)
    if outcome.completed_work:
        registry.counter("sim_coded_work_completed_total",
                         "useful work units decoded from coded quanta"
                         ).inc(outcome.completed_work)
    if outcome.waste_work:
        registry.counter("sim_coded_waste_work_total",
                         "delivered share mass that decoded nothing"
                         ).inc(outcome.waste_work)

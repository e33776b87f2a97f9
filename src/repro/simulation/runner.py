"""High-level simulation driver and result object.

:func:`simulate_allocation` wires a :class:`~repro.simulation.engine.Simulator`,
a :class:`~repro.simulation.network.SingleChannelNetwork`, one
:class:`~repro.simulation.entities.Worker` per computer and a
:class:`~repro.simulation.entities.Server` together, executes the given
:class:`~repro.protocols.base.WorkAllocation`, and reports what actually
completed within the lifespan.

The key output, :attr:`SimulationResult.completed_work`, counts a
computer's quantum only when its results fully reached the server by
``L``.  For FIFO allocations this equals the analytic ``W(L;P)`` exactly
(the fluid schedule has no end effects beyond the ones it already
budgets), which the integration test suite verifies over random clusters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.params import ModelParams
from repro.core.profile import Profile
from repro.errors import SimulationError
from repro.faults.spec import FaultScenario, MaterializedFaults, parse_faults
from repro.obs.tracing import SimulationObserver, current_observation
from repro.protocols.base import Protocol, WorkAllocation
from repro.protocols.timeline import Interval, Timeline
from repro.simulation.engine import Simulator
from repro.simulation.entities import ResultSequencer, Server, Worker, WorkerRecord
from repro.simulation.network import SingleChannelNetwork

__all__ = ["SimulationResult", "simulate_allocation", "simulate_protocol"]

_ENGINES = ("auto", "events", "analytic")


@dataclass(frozen=True)
class SimulationResult:
    """Everything observed during one simulated CEP run."""

    allocation: WorkAllocation
    records: tuple[WorkerRecord, ...]
    completed_work: float
    completed_computers: tuple[int, ...]
    events_processed: int
    network_busy_time: float
    makespan: float
    failed_computers: tuple[int, ...] = ()
    #: Largest event-queue depth the engine saw (final queue is empty by
    #: construction — the loop drains it).  One source of truth with the
    #: metrics layer's ``sim_queue_depth_peak`` gauge.
    peak_queue_depth: int = 0
    #: Channel reservations granted during the run (lost attempts included).
    transits_granted: int = 0
    #: Channel attempts that repeated a lost transmission.
    retransmits: int = 0
    #: Messages (work or result) that exhausted their retransmit budget.
    messages_lost: int = 0
    #: Individual fault events the scenario injected into this run.
    faults_injected: int = 0

    @property
    def lifespan(self) -> float:
        return self.allocation.lifespan

    @property
    def all_completed(self) -> bool:
        """Whether every positive-work computer finished in time."""
        active = [r for r in self.records if r.work > 0.0]
        return len(self.completed_computers) == len(active)

    def record_for(self, computer: int) -> WorkerRecord:
        """The milestone record of one computer."""
        for r in self.records:
            if r.computer == computer:
                return r
        raise SimulationError(f"no record for computer {computer}")

    def to_timeline(self) -> Timeline:
        """Convert observed milestones into a checkable :class:`Timeline`."""
        params = self.allocation.params
        intervals: list[Interval] = []
        for r in self.records:
            if r.work == 0.0 or np.isnan(r.send_prep_start):
                continue
            prep_end = r.send_prep_start + params.pi * r.work
            intervals.append(Interval("server", "work-prep", r.computer,
                                      r.send_prep_start, prep_end))
            if not np.isnan(r.arrived):
                intervals.append(Interval("network", "work-transit", r.computer,
                                          r.arrived - params.tau * r.work, r.arrived))
            if not np.isnan(r.busy_end):
                intervals.append(Interval(f"worker:{r.computer}", "busy", r.computer,
                                          r.arrived, r.busy_end))
            if params.delta > 0.0 and not np.isnan(r.result_end):
                intervals.append(Interval("network", "result-transit", r.computer,
                                          r.result_start, r.result_end))
        return Timeline(allocation=self.allocation, intervals=tuple(intervals))


def simulate_allocation(allocation: WorkAllocation, *,
                        results_policy: str = "late",
                        faults: "FaultScenario | MaterializedFaults | str | None" = None,
                        skip_failed_results: bool = False,
                        observer: SimulationObserver | None = None,
                        engine: str = "auto") -> SimulationResult:
    """Execute a work allocation at event granularity — or analytically.

    Parameters
    ----------
    allocation:
        The schedule to execute.
    engine:
        ``"events"`` — always run the discrete-event engine.
        ``"analytic"`` — always take the event-free closed form of
        :mod:`repro.simulation.fastpath`; raises
        :class:`~repro.errors.SimulationError` when combined with fault
        injection (the analytic timeline is fault-free by construction).
        ``"auto"`` (default) — analytic whenever the run is fault-free
        and no per-event observer is attached (explicitly or via the
        ambient observation's tracer); the event engine otherwise.  An
        ambient *metrics-only* observation keeps the fast path and
        counts its use in the ``sim_fastpath_hits_total`` counter.
    results_policy:
        ``"late"`` — results use the contiguous end-of-lifespan slots of
        the paper's layout; ``"greedy"`` — results go as early as the
        finishing order and channel allow.
    faults:
        Fault injection: a :class:`~repro.faults.spec.FaultScenario` (or
        an already materialised one, or a ``--faults`` grammar string).
        Scenarios are materialised against this allocation's cluster
        size and lifespan; the materialisation is seeded and
        deterministic, so fault-injected runs replay bit-identically.
        A worker crash is ``FaultScenario(faults=(PermanentCrash(c, t),))``
        (``crash:c@t``): the crashed worker performs no further actions
        and work on its bench is lost, while results already handed to
        the channel still arrive.
    skip_failed_results:
        Recovery heuristic for the result sequencer: step past dead
        workers so the tail of the finishing order can still deliver.
        Off by default — the strict FIFO contract stalls everything
        queued behind a failure, which is precisely the fragility worth
        measuring.
    observer:
        Live instrumentation hook.  When omitted, the ambient
        :func:`repro.obs.tracing.current_observation` (if any) supplies
        one, so a CLI- or benchmark-installed trace/metrics context
        reaches simulations it never constructed; with no observation
        active the run is uninstrumented.

    Returns
    -------
    SimulationResult
    """
    if results_policy not in ("late", "greedy"):
        raise SimulationError(f"unknown results_policy {results_policy!r}")
    if engine not in _ENGINES:
        raise SimulationError(
            f"unknown engine {engine!r}; expected one of {_ENGINES}")
    if isinstance(faults, str):
        faults = parse_faults(faults)
    if isinstance(faults, FaultScenario):
        faults = faults.materialize(allocation.n, allocation.lifespan)
    if faults is not None:
        for c in faults.timelines:
            if not (0 <= c < allocation.n):
                raise SimulationError(
                    f"fault timeline for unknown computer {c}")

    # ---- engine dispatch -------------------------------------------------
    if engine == "analytic":
        if faults is not None:
            raise SimulationError(
                "engine='analytic' cannot simulate faults — "
                "fault timelines change the event arithmetic; use "
                "engine='events' (or 'auto') for fault-injected runs")
        return _analytic_dispatch(allocation, results_policy, observer)
    if engine == "auto" and faults is None and observer is None:
        ambient = current_observation()
        if ambient is None or ambient.tracer is None:
            # Fault-free and nobody needs per-event callbacks: the
            # closed form is exact.  A metrics-only ambient observation
            # still gets its run counters (and fast-path coverage).
            return _analytic_dispatch(allocation, results_policy, None)

    params = allocation.params
    profile = allocation.profile
    if observer is None:
        ctx = current_observation()
        if ctx is not None:
            observer = SimulationObserver(ctx.tracer, ctx.registry)
    sim = Simulator(observer=observer)
    network = SingleChannelNetwork(
        observer=observer,
        faults=faults.channel if faults is not None else None,
        retransmit=faults.retransmit if faults is not None else None)

    slot_starts: dict[int, float] | None = None
    if results_policy == "late" and params.delta > 0.0:
        active = [c for c in allocation.finishing_order if allocation.w[c] > 0.0]
        durations = [params.tau_delta * float(allocation.w[c]) for c in active]
        suffix = np.cumsum(durations[::-1])[::-1] if active else np.array([])
        slot_starts = {c: float(allocation.lifespan - s)
                       for c, s in zip(active, suffix)}

    sequencer: ResultSequencer | None = None
    if params.delta > 0.0:
        sequencer = ResultSequencer(
            sim, network,
            tuple(c for c in allocation.finishing_order if allocation.w[c] > 0.0),
            slot_starts,
            skip_failed=skip_failed_results)

    records: dict[int, WorkerRecord] = {}
    workers: dict[int, Worker] = {}
    timelines = faults.timelines if faults is not None else {}
    for c in range(profile.n):
        wc = float(allocation.w[c])
        record = WorkerRecord(computer=c, work=wc)
        records[c] = record
        workers[c] = Worker(
            sim, record,
            busy_time=params.B * float(profile.rho[c]) * wc,
            result_duration=params.tau_delta * wc,
            sequencer=sequencer,
            fault=timelines.get(c))

    if observer is not None and observer.tracer is not None:
        with observer.tracer.span("sim.run", n=profile.n,
                                  lifespan=allocation.lifespan,
                                  protocol=allocation.protocol_name,
                                  policy=results_policy) as span_attrs:
            Server(sim, network, allocation, workers).start()
            sim.run()
            span_attrs["events"] = sim.events_processed
    else:
        Server(sim, network, allocation, workers).start()
        sim.run()
    network.assert_serial()

    if observer is not None and observer.registry is not None:
        _record_run_metrics(observer.registry, network, records,
                            faults.faults_injected if faults is not None
                            else 0)

    tol = 1e-9 * max(1.0, allocation.lifespan)
    completed = tuple(
        c for c in range(profile.n)
        if allocation.w[c] > 0.0
        and records[c].completed
        and records[c].result_end <= allocation.lifespan + tol)
    completed_work = float(sum(allocation.w[c] for c in completed))
    makespan = max((r.result_end for r in records.values() if r.completed),
                   default=0.0)

    return SimulationResult(
        allocation=allocation,
        records=tuple(records[c] for c in range(profile.n)),
        completed_work=completed_work,
        completed_computers=completed,
        events_processed=sim.events_processed,
        network_busy_time=network.busy_time(),
        makespan=makespan,
        failed_computers=tuple(c for c in range(profile.n)
                               if workers[c].failed),
        peak_queue_depth=sim.peak_queue_depth,
        transits_granted=len(network.transits),
        retransmits=network.retransmits,
        messages_lost=network.messages_lost,
        faults_injected=(faults.faults_injected if faults is not None
                         else 0),
    )


def _analytic_dispatch(allocation: WorkAllocation, results_policy: str,
                       observer: SimulationObserver | None) -> SimulationResult:
    """Run the event-free fast path and fold its facts into any metrics."""
    from repro.simulation.fastpath import analytic_simulation

    result = analytic_simulation(allocation, results_policy=results_policy)
    registry = observer.registry if observer is not None else None
    if registry is None:
        ctx = current_observation()
        if ctx is not None:
            registry = ctx.registry
    if registry is not None:
        _record_analytic_metrics(registry, result)
    return result


def _record_analytic_metrics(registry, result: SimulationResult) -> None:
    """The fast path's equivalent of the per-run event-engine metrics.

    Event-granular series (queue depth, events/second) have no analytic
    counterpart; everything derivable from the closed-form records is
    recorded under the same metric names the event engine uses, plus the
    ``sim_fastpath_hits_total`` coverage counter batch runs report.
    """
    registry.counter(
        "sim_fastpath_hits_total",
        "simulation runs served by the event-free analytic fast path"
    ).inc()
    registry.counter("sim_runs_total", "simulation runs executed").inc()
    registry.counter(
        "sim_engine_runs_total", "simulation runs, by dispatching engine"
    ).inc(engine="analytic")
    registry.counter(
        "sim_channel_busy_time",
        "simulated time units the shared channel spent occupied"
    ).inc(result.network_busy_time)
    registry.counter(
        "sim_transits_total", "channel reservations granted"
    ).inc(result.transits_granted)
    milestones = registry.counter(
        "sim_worker_milestones_total",
        "per-worker milestones reached, by milestone kind")
    arrived = sum(1 for r in result.records if not np.isnan(r.arrived))
    computed = sum(1 for r in result.records if not np.isnan(r.busy_end))
    delivered = sum(1 for r in result.records if r.completed)
    if arrived:
        milestones.inc(arrived, milestone="work_arrived")
    if computed:
        milestones.inc(computed, milestone="compute_done")
    if delivered:
        milestones.inc(delivered, milestone="result_delivered")


def _record_run_metrics(registry, network: SingleChannelNetwork,
                        records: dict[int, WorkerRecord],
                        faults_injected: int = 0) -> None:
    """Fold one finished run's channel and milestone facts into metrics."""
    registry.counter(
        "sim_engine_runs_total", "simulation runs, by dispatching engine"
    ).inc(engine="events")
    if faults_injected:
        registry.counter(
            "sim_faults_injected_total", "fault events injected into runs"
        ).inc(faults_injected)
    registry.counter(
        "sim_channel_busy_time",
        "simulated time units the shared channel spent occupied"
    ).inc(network.busy_time())
    registry.counter(
        "sim_transits_total", "channel reservations granted"
    ).inc(len(network.transits))
    if network.retransmits:
        registry.counter(
            "sim_retransmits_total",
            "channel attempts repeating a lost transmission"
        ).inc(network.retransmits)
    if network.messages_lost:
        registry.counter(
            "sim_messages_lost_total",
            "messages that exhausted their retransmit budget"
        ).inc(network.messages_lost)
    milestones = registry.counter(
        "sim_worker_milestones_total",
        "per-worker milestones reached, by milestone kind")
    arrived = sum(1 for r in records.values() if not np.isnan(r.arrived))
    computed = sum(1 for r in records.values() if not np.isnan(r.busy_end))
    delivered = sum(1 for r in records.values() if r.completed)
    if arrived:
        milestones.inc(arrived, milestone="work_arrived")
    if computed:
        milestones.inc(computed, milestone="compute_done")
    if delivered:
        milestones.inc(delivered, milestone="result_delivered")


def simulate_protocol(protocol: Protocol, profile: Profile, params: ModelParams,
                      lifespan: float, *, results_policy: str = "late",
                      observer: SimulationObserver | None = None,
                      engine: str = "auto") -> SimulationResult:
    """Allocate with ``protocol`` and execute the result in the simulator."""
    allocation = protocol.allocate(profile, params, lifespan)
    return simulate_allocation(allocation, results_policy=results_policy,
                               observer=observer, engine=engine)

"""Discrete-event simulator for CEP worksharing (substitute for the
authors' unpublished simulator — see DESIGN.md §4).

The simulator executes :class:`~repro.protocols.base.WorkAllocation`
objects operationally — event queue, serialised single channel, per-worker
state machines — and measures completed work independently of the
analytic formulas, closing the loop between Theorem 2 and an actual
execution.
"""

from repro.simulation.engine import Simulator
from repro.simulation.entities import ResultSequencer, Server, Worker, WorkerRecord
from repro.simulation.events import Event, EventQueue
from repro.simulation.network import SingleChannelNetwork, Transit
from repro.simulation.fastpath import analytic_records, analytic_simulation
from repro.simulation.runner import (
    SimulationResult,
    simulate_allocation,
    simulate_protocol,
)
from repro.simulation.trace import (
    UtilizationSummary,
    WorkerIdleBreakdown,
    event_log,
    utilization_summary,
)

__all__ = [
    "Simulator",
    "Event",
    "EventQueue",
    "SingleChannelNetwork",
    "Transit",
    "Server",
    "Worker",
    "WorkerRecord",
    "ResultSequencer",
    "SimulationResult",
    "simulate_allocation",
    "simulate_protocol",
    "analytic_records",
    "analytic_simulation",
    "UtilizationSummary",
    "WorkerIdleBreakdown",
    "utilization_summary",
    "event_log",
]

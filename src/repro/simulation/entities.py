"""Server and worker state machines for the CEP simulation.

These entities execute a :class:`~repro.protocols.base.WorkAllocation`
*operationally*: the server packages and sends work packages seriatim in
startup order, each worker unpackages/computes/packages (one busy period
of ``B·ρ·w`` under the balanced-architecture assumption), and results are
returned in finishing order under one of two policies:

``"late"``
    Results occupy the precomputed contiguous slots at the end of the
    lifespan (the paper's Fig.-2 layout).  A worker that misses its slot
    delays the whole tail — visible as lost work, exactly what happens
    when an allocation over-commits.
``"greedy"``
    Results are sent as early as the finishing order and the channel
    allow (a work-conserving executor).  Same completed work for a
    feasible allocation, earlier completion times.

The entities deliberately *recompute nothing* from the closed forms: all
timing emerges from event ordering, so agreement between simulated and
analytic work production is a genuine check of Theorem 2.

Faults
------
Each worker optionally carries a
:class:`~repro.faults.models.FaultTimeline`: permanent crashes kill it
mid-action (work on the bench is lost); transient
outages pause its progress; degraded-speed windows dilate its busy
period.  Channel faults live in the network — the entities only have to
cope with a transit that comes back ``delivered=False`` (a work quantum
that never reaches its worker, or a result the server never sees).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.faults.models import FaultTimeline
from repro.protocols.base import WorkAllocation
from repro.simulation.engine import Simulator
from repro.simulation.network import SingleChannelNetwork

__all__ = ["WorkerRecord", "ResultSequencer", "Server", "Worker"]


@dataclass
class WorkerRecord:
    """Observed per-computer milestones (NaN until they happen)."""

    computer: int
    work: float
    send_prep_start: float = float("nan")
    arrived: float = float("nan")
    busy_end: float = float("nan")
    result_start: float = float("nan")
    result_end: float = float("nan")

    @property
    def completed(self) -> bool:
        """Whether the result round-trip finished (or, for δ=0, compute did)."""
        return not np.isnan(self.result_end)


class ResultSequencer:
    """Grants result transmissions in finishing order.

    Workers announce readiness; the sequencer reserves the channel for
    worker Φ(k) only once workers Φ(1)…Φ(k−1) have been granted, keeping
    the finishing order a *protocol* property rather than a race.
    """

    def __init__(self, sim: Simulator, network: SingleChannelNetwork,
                 finishing_order: tuple[int, ...],
                 slot_starts: dict[int, float] | None,
                 skip_failed: bool = False) -> None:
        self._sim = sim
        self._network = network
        self._order = [c for c in finishing_order]
        self._slot_starts = slot_starts  # None => greedy policy
        self._skip_failed = skip_failed
        self._ready: dict[int, float] = {}
        self._failed: set[int] = set()
        self._next = 0
        self._grants: dict[int, tuple[float, float]] = {}
        self._callbacks: dict[int, callable] = {}
        #: Results whose transmission exhausted its retransmit budget.
        self.results_lost = 0

    def skip(self, computer: int) -> None:
        """Remove a zero-work computer from the sequence."""
        self._order.remove(computer)

    def announce(self, computer: int, ready_time: float,
                 duration: float, on_complete) -> None:
        """A worker's results are packaged and ready for transmission."""
        self._ready[computer] = ready_time
        self._callbacks[computer] = (duration, on_complete)
        self._advance()

    def mark_failed(self, computer: int) -> None:
        """A worker will never deliver (it died, or its work never arrived).

        Under the ``skip_failed`` recovery heuristic the sequencer steps
        past the dead worker so later results can flow; under the strict
        FIFO protocol (the default) the finishing order is a contract and
        everything queued behind the failure stalls — the fragility this
        feature exists to expose.
        """
        self._failed.add(computer)
        if self._skip_failed:
            self._advance()

    def _advance(self) -> None:
        while self._next < len(self._order):
            c = self._order[self._next]
            if c in self._failed and c not in self._ready:
                if not self._skip_failed:
                    return  # strict protocol: the tail is stuck
                self._next += 1
                continue
            if c not in self._ready:
                return  # must wait for the next-in-Φ worker
            duration, on_complete = self._callbacks[c]
            earliest = self._ready[c]
            if self._slot_starts is not None:
                earliest = max(earliest, self._slot_starts[c])
            # The grant decision is being made *now*: a worker unblocked
            # late (its Φ-predecessor failed after this one became
            # ready) must not book the channel in the simulator's past.
            earliest = max(earliest, self._sim.now)
            transit = self._network.reserve("result", c, earliest, duration)
            if not transit.delivered:
                # The channel ate the result: the server never saw Φ(k).
                self._failed.add(c)
                del self._ready[c]
                self.results_lost += 1
                if not self._skip_failed:
                    return  # strict protocol: the contract is broken
                self._next += 1
                continue
            self._grants[c] = (transit.start, transit.end)
            self._next += 1
            self._sim.schedule_at(transit.end,
                                  lambda cb=on_complete, t=transit: cb(t),
                                  label=f"result-arrive C{c}")


class Worker:
    """One cluster computer: unpackage, compute, package, transmit.

    The optional *fault timeline* models everything that can go wrong on
    the worker itself: a permanent crash freezes it mid-action (work on
    its bench is lost), a transient outage pauses its progress, and a
    degraded-speed window dilates its busy period.
    """

    def __init__(self, sim: Simulator, record: WorkerRecord, busy_time: float,
                 result_duration: float, sequencer: ResultSequencer | None,
                 fault: FaultTimeline | None = None) -> None:
        self._sim = sim
        self.record = record
        self._busy_time = busy_time
        self._result_duration = result_duration
        self._sequencer = sequencer
        self._fault = fault if fault is not None and not fault.is_benign else None
        self.failed = False

    def receive(self, arrival_time: float) -> None:
        """Package arrived: start the busy period (unless already dead)."""
        fault = self._fault
        if fault is None:
            busy_end = arrival_time + self._busy_time
        else:
            if fault.crashes_by(arrival_time):
                self._die()
                return
            busy_end = fault.completion_time(arrival_time, self._busy_time)
            if fault.crashes_by(busy_end):
                # Dies mid-computation: the quantum is lost.
                self.record.arrived = arrival_time
                self._sim.schedule_at(fault.crash_at, self._die,
                                      label=f"failure C{self.record.computer}")
                return
        self.record.arrived = arrival_time
        self._sim.schedule_at(busy_end, self._finish_busy,
                              label=f"busy-end C{self.record.computer}")

    def starve(self) -> None:
        """The work package never arrived (lost in the channel).

        The worker is alive but has nothing to compute; the sequencer
        must not wait for it.
        """
        if self._sequencer is not None:
            self._sequencer.mark_failed(self.record.computer)

    def _die(self) -> None:
        self.failed = True
        if self._sequencer is not None:
            self._sequencer.mark_failed(self.record.computer)

    def _finish_busy(self) -> None:
        self.record.busy_end = self._sim.now
        if self._sequencer is None:
            # δ = 0: no result message; completion is the busy end itself.
            self.record.result_start = self._sim.now
            self.record.result_end = self._sim.now
            return
        self._sequencer.announce(self.record.computer, self._sim.now,
                                 self._result_duration, self._result_arrived)

    def _result_arrived(self, transit) -> None:
        # The message was already in the channel's custody: it completes
        # even if the worker died after handing it off.
        self.record.result_start = transit.start
        self.record.result_end = transit.end


class Server:
    """The server C₀: packages and sends work packages seriatim."""

    def __init__(self, sim: Simulator, network: SingleChannelNetwork,
                 allocation: WorkAllocation,
                 workers: dict[int, Worker]) -> None:
        self._sim = sim
        self._network = network
        self._alloc = allocation
        self._workers = workers
        self._pending = [c for c in allocation.startup_order
                         if allocation.w[c] > 0.0]
        self._index = 0

    def start(self) -> None:
        """Begin the send chain at time zero."""
        if self._sim.now != 0.0:
            raise SimulationError("server must start at time 0")
        self._send_next()

    def _send_next(self) -> None:
        if self._index >= len(self._pending):
            return
        c = self._pending[self._index]
        self._index += 1
        wc = float(self._alloc.w[c])
        pi, tau = self._alloc.params.pi, self._alloc.params.tau
        worker = self._workers[c]
        worker.record.send_prep_start = self._sim.now
        prep_end = self._sim.now + pi * wc
        transit = self._network.reserve("work", c, prep_end, tau * wc)
        if transit.delivered:
            self._sim.schedule_at(transit.end,
                                  lambda w=worker, t=transit.end: w.receive(t),
                                  label=f"arrive C{c}")
        else:
            # The channel lost the package past its retransmit budget:
            # the quantum never reaches its worker.
            self._sim.schedule_at(transit.end,
                                  lambda w=worker: w.starve(),
                                  label=f"work-lost C{c}")
        # Seriatim: next package's preparation begins the moment this
        # package has fully left the server+channel pipeline.
        self._sim.schedule_at(transit.end, self._send_next,
                              label=f"next-send after C{c}")

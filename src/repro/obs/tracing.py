"""Structured tracing: nestable spans, point events, and an ambient context.

A :class:`Tracer` produces a stream of *records* — plain dicts with a
``type`` of ``"span"`` or ``"event"`` — that can be kept in memory for
tests, streamed to JSONL via :class:`repro.obs.export.JsonlTraceWriter`,
or both.  Spans nest through a context manager (or the :func:`traced`
decorator); point events capture instants such as every event the
discrete-event simulator pops.

The *ambient observation* (:func:`observe` / :func:`current_observation`)
is how instrumentation reaches code it does not call directly: the CLI
installs an :class:`Observation` around an experiment run, and any
:func:`repro.simulation.runner.simulate_allocation` performed underneath
it picks the tracer and registry up automatically.  When no observation
is active, every hook in the library resolves to ``None`` and the hot
paths skip instrumentation with a single ``is not None`` branch.
"""

from __future__ import annotations

import contextvars
import functools
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator

from repro.obs.metrics import MetricsRegistry

__all__ = ["Tracer", "TraceContext", "Observation", "SimulationObserver",
           "observe", "current_observation", "traced", "new_span_id"]


def new_span_id() -> str:
    """A fresh span/trace identifier: 64 random bits as 16 lowercase hex
    characters (a ``uuid4`` prefix would fix one of them at ``'4'``)."""
    return os.urandom(8).hex()


class TraceContext:
    """A (trace_id, span_id) pair that crosses process boundaries.

    The batch engine attaches one to every worker task so the worker's
    tracer is *born linked*: its records carry the session's trace id,
    its root spans parent onto the span that dispatched them, and —
    because the context also carries the session tracer's monotonic
    ``epoch``, and ``time.perf_counter`` shares its base across
    processes on one machine — worker timestamps land directly in the
    session's time domain.  The payload is two short strings and a
    float, so it pickles/JSONs trivially.
    """

    __slots__ = ("trace_id", "span_id", "epoch")

    def __init__(self, trace_id: str, span_id: str | None = None,
                 epoch: float | None = None) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.epoch = epoch

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TraceContext(trace_id={self.trace_id!r}, "
                f"span_id={self.span_id!r}, epoch={self.epoch!r})")

    def __eq__(self, other: Any) -> bool:
        return (isinstance(other, TraceContext)
                and other.trace_id == self.trace_id
                and other.span_id == self.span_id
                and other.epoch == self.epoch)

    def __getstate__(self) -> tuple[str, str | None, float | None]:
        return (self.trace_id, self.span_id, self.epoch)

    def __setstate__(self, state: tuple[str, str | None, float | None]) -> None:
        self.trace_id, self.span_id, self.epoch = state


class Tracer:
    """Emits span/event records to an in-memory list and optional sinks.

    Records are dicts with stable keys:

    ``{"type": "span", "name", "ts", "dur", "depth", "attrs",
    "trace_id", "span_id", "parent_id"}``
        A closed span.  ``ts`` is seconds since the tracer's epoch
        (monotonic clock); ``dur`` is the span's wall duration.
        ``span_id`` is unique per span; ``parent_id`` is the enclosing
        span's id (or the tracer's ``root_parent_id`` for top-level
        spans, which is how cross-process trees link up).
    ``{"type": "event", "name", "ts", "depth", "attrs", "trace_id",
    "parent_id"}``
        A point event.  Simulation events carry their *simulated* time
        in ``attrs["t"]``; ``ts`` stays in the tracer's wall domain.
        Events carry no id of their own — they are leaves.

    Every record carries the tracer's ``trace_id``, so all spans of one
    run — including records ingested from worker processes — share one
    trace identity.
    """

    def __init__(self, sink: Callable[[dict], None] | None = None,
                 keep_records: bool = True, *,
                 trace_id: str | None = None,
                 root_parent_id: str | None = None) -> None:
        self._sinks: list[Callable[[dict], None]] = [sink] if sink else []
        self._keep = keep_records
        self._records: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.epoch = time.perf_counter()
        self.wall_epoch = time.time()
        self.trace_id = trace_id or new_span_id()
        self.root_parent_id = root_parent_id

    @classmethod
    def from_context(cls, context: TraceContext, **kwargs: Any) -> "Tracer":
        """A tracer whose records continue an existing trace.

        Adopting the context's ``epoch`` puts this tracer's timestamps
        in the originating tracer's time domain, so ingested worker
        records line up on one timeline.
        """
        tracer = cls(trace_id=context.trace_id,
                     root_parent_id=context.span_id, **kwargs)
        if context.epoch is not None:
            tracer.epoch = context.epoch
        return tracer

    def context(self) -> TraceContext:
        """The current propagation context: trace id + innermost span."""
        return TraceContext(self.trace_id, self.current_span_id(), self.epoch)

    # ------------------------------------------------------------------
    def _stack(self) -> list[tuple[str, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span_id(self) -> str | None:
        """The id new child spans would be parented to on this thread."""
        stack = self._stack()
        return stack[-1][1] if stack else self.root_parent_id

    def _emit(self, record: dict) -> None:
        if self._keep:
            with self._lock:
                self._records.append(record)
        for sink in self._sinks:
            sink(record)

    def add_sink(self, sink: Callable[[dict], None]) -> None:
        """Attach another record consumer (e.g. a JSONL writer)."""
        self._sinks.append(sink)

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict]:
        """Open a nested span; the record is emitted when the span closes.

        The yielded dict is the span's mutable ``attrs`` — handlers may
        add fields (row counts, outcomes) before the span closes.
        """
        stack = self._stack()
        depth = len(stack)
        span_id = new_span_id()
        parent_id = stack[-1][1] if stack else self.root_parent_id
        stack.append((name, span_id))
        start = time.perf_counter()
        try:
            yield attrs
        except BaseException:
            attrs.setdefault("error", True)
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self._emit({"type": "span", "name": name,
                        "ts": start - self.epoch, "dur": end - start,
                        "depth": depth, "attrs": attrs,
                        "trace_id": self.trace_id, "span_id": span_id,
                        "parent_id": parent_id})

    @contextmanager
    def attach(self, parent_id: str | None) -> Iterator[None]:
        """Parent this thread's next top-level spans onto an existing id.

        How a span opened elsewhere — typically a pre-timed request span
        whose id was minted up front — adopts work performed on another
        thread (the service's executor-dispatched experiment runs).  No
        record is emitted for the attachment itself.
        """
        if parent_id is None:
            yield
            return
        stack = self._stack()
        stack.append(("<attached>", parent_id))
        try:
            yield
        finally:
            stack.pop()

    def record_span(self, name: str, *, duration: float,
                    ts: float | None = None, span_id: str | None = None,
                    parent_id: str | None = None, depth: int = 0,
                    attrs: dict[str, Any] | None = None) -> str:
        """Emit one already-timed span record; returns its span id.

        For callers that measure a duration themselves and must not
        touch the tracer's thread-local span stack — the asyncio serving
        layer, whose concurrent tasks interleave on one thread.  ``ts``
        defaults to "``duration`` seconds ago"; pass ``span_id`` when
        the id was minted up front so children could link to it while
        the span was still open.

        The emitted record is shaped exactly like :meth:`span`'s, so
        downstream consumers (store, exporters) cannot tell them apart.
        """
        span_id = span_id or new_span_id()
        if ts is None:
            ts = time.perf_counter() - duration - self.epoch
        self._emit({"type": "span", "name": name, "ts": ts,
                    "dur": duration, "depth": depth, "attrs": attrs or {},
                    "trace_id": self.trace_id, "span_id": span_id,
                    "parent_id": parent_id})
        return span_id

    def event(self, name: str, **attrs: Any) -> None:
        """Emit a point event at the current instant."""
        stack = self._stack()
        self._emit({"type": "event", "name": name,
                    "ts": time.perf_counter() - self.epoch,
                    "depth": len(stack), "attrs": attrs,
                    "trace_id": self.trace_id,
                    "parent_id": stack[-1][1] if stack
                    else self.root_parent_id})

    def ingest(self, records: Iterable[dict], *,
               parent_id: str | None = None, **extra_attrs: Any) -> int:
        """Re-emit records produced by another tracer (returns the count).

        The batch engine uses this to fold each worker's trace back into
        the session tracer: records keep their own ``ts``/``depth``
        (each worker has its own epoch and span stack), and any
        ``extra_attrs`` — typically a worker/task id — are merged into
        each record's ``attrs`` so the provenance survives.

        Ingested records are *re-linked* into this tracer's trace:
        every record's ``trace_id`` is rewritten to this tracer's, and
        records without a parent (foreign roots, or records from a
        pre-trace-identity tracer) are parented onto ``parent_id`` when
        given.  Workers whose tracers were built
        :meth:`from_context` arrive already linked and pass through
        unchanged apart from the attribute merge.
        """
        count = 0
        for record in records:
            merged = dict(record)
            if extra_attrs:
                merged["attrs"] = {**merged.get("attrs", {}), **extra_attrs}
            if merged.get("trace_id") != self.trace_id:
                merged["trace_id"] = self.trace_id
            if merged.get("parent_id") is None and parent_id is not None:
                merged["parent_id"] = parent_id
            self._emit(merged)
            count += 1
        return count

    # ------------------------------------------------------------------
    @property
    def records(self) -> tuple[dict, ...]:
        """Every record emitted so far (empty if ``keep_records=False``)."""
        with self._lock:
            return tuple(self._records)

    def records_named(self, name: str) -> list[dict]:
        """All records with the given name, in emission order."""
        return [r for r in self.records if r["name"] == name]

    @property
    def active_depth(self) -> int:
        """How many spans are currently open on this thread."""
        return len(self._stack())


class Observation:
    """A tracer/registry pair installed for the duration of a run."""

    __slots__ = ("tracer", "registry")

    def __init__(self, tracer: Tracer | None = None,
                 registry: MetricsRegistry | None = None) -> None:
        self.tracer = tracer
        self.registry = registry


_current: contextvars.ContextVar[Observation | None] = contextvars.ContextVar(
    "repro_observation", default=None)


def current_observation() -> Observation | None:
    """The ambient observation, or None when instrumentation is off."""
    return _current.get()


@contextmanager
def observe(observation: Observation) -> Iterator[Observation]:
    """Install ``observation`` as the ambient context for this block."""
    token = _current.set(observation)
    try:
        yield observation
    finally:
        _current.reset(token)


def traced(name: str | None = None) -> Callable:
    """Decorator: run the function inside a span on the ambient tracer.

    Resolution happens per call, so decorated functions stay no-ops when
    no observation is active — the disabled cost is one context-variable
    read.
    """
    def wrap(func: Callable) -> Callable:
        span_name = name or f"{func.__module__}.{func.__qualname__}"

        @functools.wraps(func)
        def inner(*args: Any, **kwargs: Any) -> Any:
            ctx = _current.get()
            if ctx is None or ctx.tracer is None:
                return func(*args, **kwargs)
            with ctx.tracer.span(span_name):
                return func(*args, **kwargs)
        inner.__traced__ = span_name  # type: ignore[attr-defined]
        return inner
    return wrap


class SimulationObserver:
    """Bridges live simulator callbacks to a tracer and a registry.

    The engine calls :meth:`on_event` on **every** event pop, so this
    class keeps per-call work minimal: tracer emission plus plain
    attribute bookkeeping; registry counters are updated once per run in
    :meth:`on_run_end`, not per event.
    """

    __slots__ = ("tracer", "registry", "events_seen", "peak_queue_depth",
                 "transits_seen", "_run_started_at", "last_run_wall_seconds")

    def __init__(self, tracer: Tracer | None = None,
                 registry: MetricsRegistry | None = None) -> None:
        self.tracer = tracer
        self.registry = registry
        self.events_seen = 0
        self.peak_queue_depth = 0
        self.transits_seen = 0
        self._run_started_at = 0.0
        self.last_run_wall_seconds = 0.0

    # -- engine hooks ---------------------------------------------------
    def on_run_start(self, sim: Any) -> None:
        self._run_started_at = time.perf_counter()
        if self.tracer is not None:
            self.tracer.event("sim.run_start", t=sim.now)

    def on_event(self, t: float, label: str, queue_depth: int) -> None:
        """One simulator event was popped at simulated time ``t``."""
        self.events_seen += 1
        if queue_depth > self.peak_queue_depth:
            self.peak_queue_depth = queue_depth
        if self.tracer is not None:
            self.tracer.event("sim.event", t=t, label=label,
                              queue_depth=queue_depth)

    def on_run_end(self, sim: Any) -> None:
        wall = time.perf_counter() - self._run_started_at
        self.last_run_wall_seconds = wall
        if self.tracer is not None:
            self.tracer.event("sim.run_end", t=sim.now,
                              events=sim.events_processed,
                              wall_seconds=wall)
        reg = self.registry
        if reg is not None:
            reg.counter("sim_runs_total",
                        "simulation runs executed").inc()
            reg.counter("sim_events_total",
                        "simulator events processed").inc(sim.events_processed)
            reg.gauge("sim_queue_depth_peak",
                      "peak event-queue depth of the most recent run"
                      ).set(sim.peak_queue_depth)
            if wall > 0 and sim.events_processed:
                reg.gauge("sim_events_per_second",
                          "event throughput of the most recent run"
                          ).set(sim.events_processed / wall)
            reg.timer("sim_run_seconds",
                      "wall-clock duration of simulation runs").observe(wall)

    # -- network hook ---------------------------------------------------
    def on_transit(self, transit: Any) -> None:
        """The shared channel granted one reservation."""
        self.transits_seen += 1
        if self.tracer is not None:
            self.tracer.event("sim.transit", kind=transit.kind,
                              computer=transit.computer,
                              start=transit.start, end=transit.end)

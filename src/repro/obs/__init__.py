"""Observability: metrics registry, structured tracing, exporters, run store.

The instrumentation layer the rest of the library reports into:

* :mod:`repro.obs.metrics` — counters, gauges, histograms, timers and a
  process-global :func:`default_registry`;
* :mod:`repro.obs.tracing` — nestable spans, point events, the
  :func:`traced` decorator, and the ambient :func:`observe` context the
  simulator and experiment framework pick up automatically;
* :mod:`repro.obs.export` — JSONL trace streams, Prometheus text
  exposition, human-readable run summaries;
* :mod:`repro.obs.store` — the SQLite run-history store behind the
  ``obs`` CLI and the service's ``/v1/obs/*`` endpoints.

Everything here is dependency-free and pay-for-what-you-use: with no
:class:`Observation` installed, the instrumented code paths reduce to a
single ``is not None`` check.
"""

from repro.obs.export import (
    JsonlTraceWriter,
    perfetto_trace,
    prometheus_text,
    read_jsonl,
    run_summary,
    write_metrics,
    write_perfetto,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    default_registry,
    set_default_registry,
)
from repro.obs.store import RunStore, default_store_path
from repro.obs.tracing import (
    Observation,
    SimulationObserver,
    TraceContext,
    Tracer,
    current_observation,
    new_span_id,
    observe,
    traced,
)

__all__ = [
    # metrics
    "Counter", "Gauge", "Histogram", "Timer", "MetricsRegistry",
    "default_registry", "set_default_registry",
    # tracing
    "Tracer", "TraceContext", "Observation", "SimulationObserver", "observe",
    "current_observation", "traced", "new_span_id",
    # export
    "JsonlTraceWriter", "read_jsonl", "prometheus_text", "write_metrics",
    "run_summary", "perfetto_trace", "write_perfetto",
    # store
    "RunStore", "default_store_path",
]

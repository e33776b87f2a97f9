"""The streaming digital twin: windows → re-evaluation → records.

:class:`StreamProcessor` is the loop the CLI and the service share.
Feed it :class:`~repro.stream.events.StreamEvent` objects; every window
the event stream closes produces one JSON-able *window record*:

* the current worker set (declared ρ and, when calibration is on, the
  fitted ρ actually used),
* the paper's measures on that set — X, the asymptotic work rate,
  HECR, the window's work production ``W`` — evaluated through the
  columnar :class:`~repro.core.batch_kernels.ProfileBatch` kernels,
* the optimal FIFO allocation (per-worker work fractions; Theorem 1
  makes FIFO the CEP optimum, so the re-planned split per window *is*
  the optimal allocation for the current cluster),
* the calibration snapshot (one-step-ahead MAPE vs the uncalibrated
  baseline, fitted τ/π/δ/ρ),
* and, in shadow mode, the same measures for an operator-supplied
  what-if profile plus the real-vs-shadow deltas.

Records are plain dicts of finite floats (NaN → None), serialised with
sorted keys — two replays of the same trace emit byte-identical JSONL,
a property the test suite and the CI smoke pin end to end.

Telemetry flows through the PR-1 metrics registry (``stream_*``
counters and gauges) and, when a run-history store is supplied, each
window's calibration snapshot is persisted live as a ``stream:window``
span record — so ``repro-hetero obs tail --follow`` can watch a stream
run from a second terminal — carrying the events that arrived since
the previous row, so ``--replay`` reads any run back from its rows.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from typing import Any, Iterable, Iterator

import numpy as np

from repro.core.batch_kernels import ProfileBatch
from repro.core.params import PAPER_TABLE1, ModelParams
from repro.core.profile import Profile
from repro.errors import InvalidProfileError, StreamError
from repro.protocols.fifo import fifo_work_fractions
from repro.stream.calibrate import Calibrator
from repro.stream.events import (STORED_EVENTS_KEY, StreamEvent,
                                 event_to_dict)
from repro.stream.windows import ClusterState, Window, WindowManager

__all__ = ["StreamProcessor", "record_to_line"]


def _clean(value: float) -> float | None:
    """NaN/inf → None so records serialise as strict JSON."""
    return float(value) if math.isfinite(value) else None


def record_to_line(record: dict) -> str:
    """The canonical JSONL form of a window record (byte-stable)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _evaluate(rho: dict[int, float], params: ModelParams,
              lifespan: float) -> dict[str, Any] | None:
    """X / work rate / HECR / W / optimal FIFO split for one worker set."""
    if not rho:
        return None
    ids = sorted(rho)
    vec = np.array([rho[i] for i in ids], dtype=float)
    batch = ProfileBatch(vec[None, :], copy=False)
    try:
        x = batch.x(params)
    except InvalidProfileError:  # a ρ so large that Bρ + A overflows
        x = np.array([math.nan])
        rate = hecr = math.nan
    else:
        rate = float(batch.work_rates(params, x=x)[0])
        hecr = float(batch.hecr(params, x=x)[0])
    fractions = fifo_work_fractions(Profile(vec), params)
    return {
        "n": len(ids),
        "x": _clean(float(x[0])),
        "work_rate": _clean(rate),
        "hecr": _clean(hecr),
        "w_window": _clean(rate * lifespan),
        "allocation": {str(i): _clean(f) for i, f in zip(ids, fractions)},
    }


class StreamProcessor:
    """Consume events, close windows, emit records (see module docstring).

    Parameters
    ----------
    window:
        Event-time window size, in the trace's time units.
    params:
        Initial architectural model; the calibrator's starting point
        and the whole model when calibration is off.
    calibrate:
        Fit (τ, π, δ, ρ) online (default).  Off, every window is
        evaluated with ``params`` and the declared speeds only.
    what_if:
        Optional shadow profile (iterable of ρ > 0): evaluated next to
        the real cluster every window, with deltas in each record.
    forget, drift_threshold:
        Calibrator retention factor per window and drift threshold (see
        :class:`~repro.stream.calibrate.Calibrator`).
    registry:
        Optional metrics registry for the ``stream_*`` series.
    store:
        Optional :class:`~repro.obs.store.RunStore`; window snapshots
        stream in live as spans, carrying the events for ``--replay``.
    """

    def __init__(self, window: float, *, params: ModelParams = PAPER_TABLE1,
                 calibrate: bool = True,
                 what_if: Iterable[float] | None = None,
                 forget: float = 0.35, drift_threshold: float = 0.1,
                 registry: Any = None, store: Any = None,
                 label: str = "stream") -> None:
        self.windows = WindowManager(window)
        self.state = ClusterState()
        self.params = params
        self.calibrator = (Calibrator(params, forget=forget,
                                      threshold=drift_threshold)
                           if calibrate else None)
        self.label = label
        self._shadow: dict[int, float] | None = None
        if what_if is not None:
            vec = list(what_if)
            if not vec or not all(
                    isinstance(r, numbers.Real) and not isinstance(r, bool)
                    and 0.0 < r < math.inf for r in vec):
                raise StreamError(
                    f"what-if profile must be positive finite rho values, "
                    f"got {vec!r}")
            self._shadow = {i: float(r) for i, r in enumerate(vec)}
        self._registry = registry
        self._store = store
        self._run_id: str | None = None
        self._started_at = time.time()
        #: Events not yet in a stored span row (only kept with a store).
        self._arrivals: list[dict] = []
        self.last_record: dict | None = None
        self.records_emitted = 0
        if store is not None:
            self._run_id = store.record_run(
                kind="stream", label=label, status="running",
                started_at=self._started_at,
                extra={"window": self.windows.size,
                       "calibrate": calibrate,
                       "what_if": (sorted(self._shadow.values())
                                   if self._shadow else None)})

    @property
    def run_id(self) -> str | None:
        return self._run_id

    # -- ingestion -----------------------------------------------------
    def feed(self, event: StreamEvent) -> list[dict]:
        """Admit one event; returns a record per window it closed."""
        records = [self._close(w) for w in self.windows.add(event)]
        if self._run_id is not None:
            self._arrivals.append(event_to_dict(event))
        return records

    def process(self, events: Iterable[StreamEvent]) -> Iterator[dict]:
        """Feed a whole source, yielding records as windows close."""
        for event in events:
            yield from self.feed(event)

    # -- window close --------------------------------------------------
    def _close(self, window: Window) -> dict:
        for event in window.events:
            self.state.apply(event)
        declared = self.state.workers

        snapshot = None
        params = self.params
        rho_used = dict(declared)
        if self.calibrator is not None:
            snapshot = self.calibrator.observe_window(window, declared)
            params = self.calibrator.params
            rho_used = {i: self.calibrator.rho_for(i, declared[i])
                        for i in declared}

        lifespan = self.windows.size
        real = _evaluate(rho_used, params, lifespan)
        shadow = None
        if self._shadow is not None:
            shadow = _evaluate(self._shadow, params, lifespan)
            if shadow is not None and real is not None:
                rate, s_rate = real["work_rate"], shadow["work_rate"]
                delta = (s_rate - rate if rate is not None
                         and s_rate is not None else None)
                shadow["work_rate_delta"] = delta
                shadow["work_rate_delta_pct"] = (
                    100.0 * delta / rate if delta is not None and rate
                    else None)

        by_type: dict[str, int] = {}
        for event in window.events:
            by_type[event.type] = by_type.get(event.type, 0) + 1
        record: dict[str, Any] = {
            "kind": "window",
            "window": window.index,
            "start": window.start,
            "end": window.end,
            "events": {"total": len(window.events), "late": window.late,
                       "by_type": by_type},
            "workers": {str(i): float(r)
                        for i, r in sorted(rho_used.items())},
            "declared": {str(i): float(r)
                         for i, r in sorted(declared.items())},
            "params": {"tau": params.tau, "pi": params.pi,
                       "delta": params.delta},
            "evaluation": real,
            "shadow": shadow,
            "calibration": snapshot.to_dict() if snapshot is not None
            else None,
            "cumulative": {"events": self.windows.events_total,
                           "windows": self.windows.windows_closed,
                           "late": self.windows.late_total},
        }
        self.last_record = record
        self.records_emitted += 1
        self._publish(record, params, rho_used)
        return record

    # -- surfaces ------------------------------------------------------
    def _publish(self, record: dict, params: ModelParams,
                 rho_used: dict[int, float]) -> None:
        registry = self._registry
        if registry is not None:
            registry.counter(
                "stream_windows_total", "event-time windows closed").inc()
            for kind, count in record["events"]["by_type"].items():
                registry.counter(
                    "stream_events_total", "stream events admitted, by type"
                ).inc(count, type=kind)
            if record["events"]["late"]:
                registry.counter(
                    "stream_late_events_total",
                    "late events that found their window already closed"
                ).inc(record["events"]["late"])
            registry.gauge("stream_workers",
                           "workers in the tracked cluster").set(
                len(rho_used))
            evaluation = record["evaluation"]
            if evaluation is not None:
                for key in ("x", "work_rate", "hecr"):
                    if evaluation[key] is not None:
                        registry.gauge(
                            f"stream_{key}",
                            f"per-window {key} of the tracked cluster"
                        ).set(evaluation[key])
            calibration = record["calibration"]
            if calibration is not None:
                for side, value in (("calibrated", calibration["mape"]),
                                    ("baseline",
                                     calibration["baseline_mape"])):
                    if value is not None:
                        registry.gauge(
                            "stream_calibration_mape",
                            "one-step-ahead MAPE of milestone predictions, "
                            "by model"
                        ).set(value, model=side)
                for name in ("tau", "pi", "delta"):
                    registry.gauge(
                        f"stream_param_{name}",
                        f"fitted architectural parameter {name}"
                    ).set(calibration[name])
                for worker, value in calibration["rho"].items():
                    registry.gauge(
                        "stream_rho", "fitted per-worker rho"
                    ).set(value, worker=worker)
        if self._store is not None and self._run_id is not None:
            attrs = {"window": record["window"],
                     "workers": len(rho_used),
                     "events": record["events"]["total"],
                     "late": record["events"]["late"]}
            evaluation = record["evaluation"]
            if evaluation is not None:
                attrs["work_rate"] = evaluation["work_rate"]
                attrs["x"] = evaluation["x"]
            if record["calibration"] is not None:
                attrs["calibration"] = record["calibration"]
            attrs[STORED_EVENTS_KEY] = self._arrivals
            self._arrivals = []
            self._store.add_spans(self._run_id, [{
                "type": "event", "name": "stream:window",
                "ts": record["start"], "dur": self.windows.size,
                "attrs": attrs}])

    def state_view(self) -> dict[str, Any]:
        """The live snapshot behind ``GET /v1/stream/state``."""
        params = (self.calibrator.params if self.calibrator is not None
                  else self.params)
        return {
            "window_size": self.windows.size,
            "current_window": self.windows.current_index,
            "buffered_events": self.windows.buffered,
            "events_total": self.windows.events_total,
            "windows_closed": self.windows.windows_closed,
            "late_events": self.windows.late_total,
            "workers": {str(i): r
                        for i, r in self.state.workers.items()},
            "params": {"tau": params.tau, "pi": params.pi,
                       "delta": params.delta},
            "calibrating": self.calibrator is not None,
            "run_id": self._run_id,
            "last_window": (self.last_record.get("window")
                            if self.last_record else None),
        }

    # -- shutdown ------------------------------------------------------
    def finish(self) -> list[dict]:
        """Flush the trailing window and emit the stream summary record.

        Returns the final records (0–1 window records plus exactly one
        ``kind: "summary"`` record carrying cumulative history and the
        calibrator's drift findings as ``speeds:`` clauses), and
        finalises the run-history row.
        """
        records = []
        window = self.windows.flush()
        if window is not None:
            records.append(self._close(window))
        drift: dict[str, Any] | None = None
        if self.calibrator is not None:
            timelines = self.calibrator.speed_timelines()
            drift = {"clauses": self.calibrator.speed_clauses(),
                     "workers": sorted(str(w) for w in timelines)}
        params = (self.calibrator.params if self.calibrator is not None
                  else self.params)
        summary: dict[str, Any] = {
            "kind": "summary",
            "windows": self.windows.windows_closed,
            "events": self.windows.events_total,
            "late": self.windows.late_total,
            "params": {"tau": params.tau, "pi": params.pi,
                       "delta": params.delta},
            "workers": {str(i): r for i, r in self.state.workers.items()},
            "drift": drift,
        }
        records.append(summary)
        self.last_record = summary
        if self._run_id is not None:
            if self._arrivals:  # fed after an earlier finish
                self._store.add_spans(self._run_id, [{
                    "type": "event", "name": "stream:events",
                    "ts": self.windows.bounds(self.windows.current_index)[0],
                    "attrs": {STORED_EVENTS_KEY: self._arrivals}}])
                self._arrivals = []
            self._store.record_run(
                run_id=self._run_id, kind="stream", label=self.label,
                status="ok", started_at=self._started_at,
                wall_seconds=time.time() - self._started_at,
                metrics=(self._registry.snapshot()
                         if self._registry is not None else None),
                extra={"window": self.windows.size,
                       "windows": self.windows.windows_closed,
                       "events_total": self.windows.events_total,
                       "late": self.windows.late_total,
                       "drift": drift})
        return records

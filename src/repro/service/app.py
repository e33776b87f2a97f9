"""The service application: routing, validation, deadlines, telemetry.

One :class:`ReproService` owns a listening socket, a
:class:`~repro.service.coalescer.MicroBatcher`, an
:class:`~repro.service.admission.AdmissionController`, and a
:class:`~repro.service.respcache.ResponseCache`, and exposes:

========  ============================  =====================================
method    path                          answers
========  ============================  =====================================
GET       ``/healthz``                  liveness + uptime + in-flight count
GET       ``/metrics``                  Prometheus text exposition
GET       ``/v1/experiments``           machine-readable experiment index
POST      ``/v1/experiments/{id}``      one experiment run (batch engine)
POST      ``/v1/x``                     ``X(P)``
POST      ``/v1/work``                  work rate / ``W(L;P)``
POST      ``/v1/hecr``                  the HECR ``ρ_C``
POST      ``/v1/allocate``              FIFO / LP work allocations
GET       ``/v1/obs/summary``           run-history store + SLO digest
GET       ``/v1/obs/runs``              recent stored runs/requests
GET       ``/v1/obs/runs/{id}``         one stored run with its spans
========  ============================  =====================================

Evaluation requests are solved inline by their handler, between the
response-cache lookup and store, with nothing in between that yields
to the event loop: the response cache is the one dedup layer.  Request
semantics (shedding, deadlines, caching) are documented in
``docs/SERVICE.md``; the telemetry surfaces in
``docs/OBSERVABILITY.md``.  Everything is instrumented through the
observability layer: ``svc_requests_total{route,code}``,
``svc_request_seconds{route}`` (with trace-id exemplars),
``svc_inflight``, ``svc_shed_total{reason}``,
``svc_response_cache_hits_total{kind}``, ``svc_response_cache_bytes``,
``svc_response_cache_entries``, ``svc_slo_burn_rate{route}``,
one ``svc:<route>`` span record per request (emitted pre-timed via
``Tracer.record_span`` because asyncio tasks interleave and must not
share the tracer's thread-local span stack), a JSON access-log line
per request on the ``repro.service.access`` logger, and — unless
disabled — one run-history-store row per ``/v1/*`` request (buffered
and written in batches off the request path) and experiment dispatch.
Every response carries ``X-Repro-Trace-Id`` / ``X-Repro-Span-Id``.

Bodies are read and written with ``orjson``: the same doubles as the
standard library's ``json`` both ways, an order of magnitude faster,
with some exponents spelled differently (``1e-6`` for ``1e-06``).
"""

from __future__ import annotations

import asyncio
import contextvars
import logging
import math
import time
from pathlib import Path
from typing import Any, Awaitable, Callable

import numpy as np
import orjson

from repro import __version__
from repro.core.params import PAPER_TABLE1, ModelParams
from repro.core.profile import Profile
from repro.errors import (CLIENT_ERRORS, FAULT_ERRORS, CodedSchemeError,
                          InvalidParameterError, InvalidProfileError,
                          ProtocolError, StreamEventError, error_class)
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.store import RunStore, default_store_path
from repro.obs.tracing import Observation, Tracer, new_span_id, observe
from repro.protocols.base import validate_order
from repro.service.admission import AdmissionController
from repro.service.coalescer import MicroBatcher, digest
from repro.service.config import ServiceConfig
from repro.service.http import (HttpError, Request, read_request,
                                render_response)
from repro.service.respcache import ResponseCache

__all__ = ["ReproService", "parse_eval_payload"]

_JSON = "application/json"
_PROM = "text/plain; version=0.0.4; charset=utf-8"

#: The current request's span id, visible to handlers running inside
#: the request's asyncio task (set by ``_respond``).  Handlers hand it
#: to the batch engine as the trace parent so downstream spans link
#: back to the request that caused them.
_REQ_SPAN: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_request_span", default=None)

#: The current request's deadline on the ``time.monotonic()`` clock, or
#: None (set by ``_run_with_deadline``).
_DEADLINE: contextvars.ContextVar[float | None] = contextvars.ContextVar(
    "repro_request_deadline", default=None)

_access_log = logging.getLogger("repro.service.access")

#: Seconds a ``/v1/*`` request's run-store row may wait in memory before
#: a flush writes it, batched with its neighbours (docs/OBSERVABILITY.md).
_STORE_FLUSH_SECONDS = 0.05


# ---------------------------------------------------------------------------
# request-payload validation
# ---------------------------------------------------------------------------

def _parse_params(obj: Any) -> ModelParams:
    """``{"tau","pi","delta"}`` (defaults from Table 1) → ModelParams."""
    if obj is None:
        return PAPER_TABLE1
    if not isinstance(obj, dict):
        raise InvalidParameterError(
            f"params must be an object with tau/pi/delta, got {type(obj).__name__}")
    unknown = set(obj) - {"tau", "pi", "delta"}
    if unknown:
        raise InvalidParameterError(
            f"unknown params fields: {', '.join(sorted(unknown))}")
    return ModelParams(tau=obj.get("tau", PAPER_TABLE1.tau),
                       pi=obj.get("pi", PAPER_TABLE1.pi),
                       delta=obj.get("delta", PAPER_TABLE1.delta))


def _all_numbers(values: list | tuple) -> bool:
    """Every element is a number (int or float) and none is a bool."""
    kinds = set(map(type, values))  # one C pass; a handful of types
    return bool not in kinds and all(issubclass(k, (int, float))
                                     for k in kinds)


def _finite_float(obj: Any) -> float | None:
    """``obj`` as a finite float, or None when it is no finite number
    (a bool, NaN, ±inf, or an int too large for a double)."""
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):
        return None
    try:
        value = float(obj)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _parse_profile(obj: Any) -> Profile:
    if not isinstance(obj, (list, tuple)) or not obj \
            or not _all_numbers(obj):
        raise InvalidProfileError(
            "profile must be a non-empty array of positive rho numbers")
    return Profile(obj)  # validates positivity / finiteness


def _parse_lifespan(obj: Any, *, required: bool) -> float | None:
    if obj is None:
        if required:
            raise InvalidParameterError("lifespan is required")
        return None
    value = _finite_float(obj)
    if value is None or value <= 0:
        raise InvalidParameterError(
            f"lifespan must be a positive finite number, got {obj!r}")
    return value


def _parse_order(obj: Any, n: int, name: str) -> tuple[int, ...] | None:
    if obj is None:
        return None
    if not isinstance(obj, (list, tuple)):
        raise ProtocolError(
            f"{name} must be a permutation of range({n}), got {obj!r}")
    return validate_order(obj, n, name=name)


def _parse_scheme_body(obj: Any) -> tuple:
    """Validate a ``"scheme"`` object into its canonical hashable tuple.

    Accepted forms: ``{"kind": "replication", "r": 2}`` and
    ``{"kind": "mds", "k": 2, "n": 3}`` (``shares`` is an accepted
    alias for ``n``).  Returns ``("replication", r)`` or
    ``("mds", k, n)`` — what the solver keys and solves on.
    """
    from repro.coded import scheme_from_spec

    if not isinstance(obj, dict):
        raise CodedSchemeError(
            f"scheme must be an object with a 'kind', got {obj!r}")
    kind = obj.get("kind")
    extra = set(obj) - {"kind", "r", "k", "n", "shares"}
    if extra:
        raise CodedSchemeError(
            f"unknown scheme fields {sorted(extra)!r}")

    def _int_field(name: str, default: Any = None) -> int:
        value = obj.get(name, default)
        if not isinstance(value, int) or isinstance(value, bool):
            raise CodedSchemeError(
                f"scheme field {name!r} must be an integer, got {value!r}")
        return value

    if kind == "replication":
        spec = ("replication", _int_field("r", 2))
    elif kind == "mds":
        shares = obj.get("n", obj.get("shares"))
        if shares is None:
            raise CodedSchemeError("mds scheme needs 'k' and 'n'")
        spec = ("mds", _int_field("k"),
                _int_field("n" if "n" in obj else "shares"))
    else:
        raise CodedSchemeError(
            f"scheme kind must be 'replication' or 'mds', got {kind!r}")
    scheme_from_spec(spec)  # range-check (r >= 1, k <= n) before keying
    return spec


def _parse_margin(obj: Any) -> float:
    from repro.coded import DEFAULT_MARGIN

    if obj is None:
        return DEFAULT_MARGIN
    value = _finite_float(obj)
    if value is None or not 0.0 < value <= 1.0:
        raise InvalidParameterError(
            f"margin must be a number in (0, 1], got {obj!r}")
    return value


def parse_eval_payload(kind: str, body: dict[str, Any]) -> dict[str, Any]:
    """Validate one evaluation request body into its canonical payload.

    The canonical payload is what the solver keys and solves on: the
    checked :class:`Profile`, params as :class:`ModelParams`, orders as
    int tuples.  Raising here (client error → 400) keeps garbage out of
    the batch solver entirely.  Every field is checked once, here, and
    hashed once: ``"digests"`` holds the SHA-256 of the ρ-values as
    float64 bytes and of each order as int64 bytes (``None`` for an
    absent one), which :func:`~repro.service.coalescer.request_key`
    keys on; its presence also tells the solver to pass the profile and
    orders on to the library without checking them again.
    """
    if not isinstance(body, dict):
        raise InvalidParameterError("request body must be a JSON object")
    profile = _parse_profile(body.get("profile"))
    payload: dict[str, Any] = {
        "profile": profile,
        "params": _parse_params(body.get("params")),
    }
    n = profile.n
    if kind == "work":
        payload["lifespan"] = _parse_lifespan(body.get("lifespan"),
                                              required=False)
    elif kind == "allocate":
        payload["lifespan"] = _parse_lifespan(body.get("lifespan"),
                                              required=True)
        protocol = body.get("protocol", "fifo")
        if protocol not in ("fifo", "lp"):
            raise ProtocolError(
                f"protocol must be 'fifo' or 'lp', got {protocol!r}")
        payload["protocol"] = protocol
        startup = _parse_order(body.get("startup_order"), n, "startup_order")
        finishing = _parse_order(body.get("finishing_order"), n,
                                 "finishing_order")
        scheme = body.get("scheme")
        if scheme is not None:
            if protocol != "fifo":
                raise ProtocolError(
                    "a redundancy scheme requires protocol 'fifo' (the "
                    "coded plan derives its own layout from the FIFO base)")
            if startup is not None or finishing is not None:
                raise ProtocolError(
                    "a redundancy scheme fixes its own orders; omit "
                    "startup_order/finishing_order")
            payload["scheme"] = _parse_scheme_body(scheme)
            payload["scheme_margin"] = _parse_margin(body.get("margin"))
        if protocol == "fifo":
            if finishing is not None and finishing != (startup or finishing):
                raise ProtocolError(
                    "FIFO requires finishing_order == startup_order "
                    "(omit it, or use protocol='lp')")
            payload["startup_order"] = startup
        else:
            natural = tuple(range(n))
            payload["startup_order"] = startup or natural
            payload["finishing_order"] = finishing or natural
            sep = body.get("enforce_separation", True)
            if not isinstance(sep, bool):
                raise InvalidParameterError(
                    f"enforce_separation must be a boolean, got {sep!r}")
            payload["enforce_separation"] = sep
    startup, finishing = (payload.get("startup_order"),
                          payload.get("finishing_order"))
    payload["digests"] = (
        digest(profile.rho, np.float64),
        None if startup is None else digest(startup, np.int64),
        None if finishing is None else digest(finishing, np.int64))
    return payload


# ---------------------------------------------------------------------------
# the service
# ---------------------------------------------------------------------------

class _Response:
    """One handler's answer: status + rendered body + extras."""

    __slots__ = ("status", "body", "content_type", "headers")

    def __init__(self, status: int, body: bytes,
                 content_type: str = _JSON,
                 headers: dict[str, str] | None = None) -> None:
        self.status = status
        self.body = body
        self.content_type = content_type
        self.headers = headers or {}


def _all_finite(obj: Any) -> bool:
    """Whether every float in a JSON-able ``obj`` is finite."""
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(map(_all_finite, obj.values()))
    if isinstance(obj, (list, tuple)):
        return all(map(_all_finite, obj))
    if isinstance(obj, np.floating):
        return bool(np.isfinite(obj))
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        return bool(np.isfinite(obj).all())
    return True


def _json_bytes(payload: Any) -> bytes:
    """``payload`` as one line of compact JSON.

    orjson writes NaN and ±inf as ``null``; a body holding ``null`` has
    its floats checked, so a non-finite answer is still a 500 and never
    a silent ``null``.  The newline is concatenated rather than asked of
    orjson (``OPT_APPEND_NEWLINE``): the copy is exact-size, where
    orjson's own buffer is over-allocated and would stay so in the
    response cache.
    """
    body = orjson.dumps(payload, option=orjson.OPT_SERIALIZE_NUMPY)
    if b"null" in body and not _all_finite(payload):
        raise ValueError("Out of range float values are not JSON compliant")
    return body + b"\n"


def _json_response(status: int, payload: Any,
                   headers: dict[str, str] | None = None) -> _Response:
    return _Response(status, _json_bytes(payload), headers=headers)


def _error_response(status: int, message: str,
                    headers: dict[str, str] | None = None,
                    **extra: Any) -> _Response:
    return _json_response(status, {"error": message, **extra}, headers=headers)


def _classified_error(cls: type[BaseException], message: str,
                      **extra: Any) -> _Response:
    """A failed request's answer by error class: a client error is
    ``400``; anything else is ``500``, labelled ``"family": "fault"``
    for the fault/simulation family."""
    if issubclass(cls, CLIENT_ERRORS):
        return _error_response(400, message, **extra)
    if issubclass(cls, FAULT_ERRORS):
        return _error_response(500, message, family="fault", **extra)
    return _error_response(500, message, **extra)


class ReproService:
    """The asyncio HTTP server around the library's hot queries.

    Parameters
    ----------
    config:
        A :class:`~repro.service.config.ServiceConfig` (defaults apply).
    registry:
        Metrics destination; defaults to the process-global registry so
        ``GET /metrics`` and the CLI share one view.
    tracer:
        Optional :class:`~repro.obs.tracing.Tracer`; when present every
        request emits one pre-timed ``svc:<route>`` span record.
    """

    def __init__(self, config: ServiceConfig | None = None, *,
                 registry: MetricsRegistry | None = None,
                 tracer: Tracer | None = None) -> None:
        self.config = config or ServiceConfig()
        self.registry = registry if registry is not None else default_registry()
        # An injected tracer keeps span records (tests, serve --trace);
        # otherwise a record-dropping tracer still supplies the trace id
        # and span ids that headers, exemplars and store rows carry.
        self._external_tracer = tracer is not None
        self.tracer = tracer if tracer is not None else Tracer(
            keep_records=False)
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            rate=self.config.rate, burst=self.config.burst)
        self.cache = ResponseCache(self.config.cache_bytes)
        self.batcher = MicroBatcher()
        self._server: asyncio.AbstractServer | None = None
        self._started_at = 0.0
        self._result_cache = None
        self.store: RunStore | None = None
        #: Request rows not yet in the store, and the timer that will
        #: flush them (armed by the first row after a flush).
        self._store_rows: list[dict[str, Any]] = []
        self._store_flush: asyncio.TimerHandle | None = None
        self._draining = False
        self._active_requests = 0
        #: Each open connection's handler task and its writer.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        #: Per-route [bad, total] request counts behind the SLO gauges.
        self._slo_counts: dict[str, list[int]] = {}
        #: The one live stream session (docs/STREAM.md): created lazily
        #: by the first POST /v1/stream/events, serialised by the lock —
        #: event-time windowing is stateful and order-sensitive.
        self._stream = None
        self._stream_lock = asyncio.Lock()
        self._routes: dict[tuple[str, str], tuple[
            Callable[[Request], Awaitable[_Response]], bool]] = {
            ("GET", "/healthz"): (self._handle_healthz, False),
            ("GET", "/metrics"): (self._handle_metrics, False),
            ("GET", "/v1/experiments"): (self._handle_experiment_index, False),
            ("GET", "/v1/obs/summary"): (self._handle_obs_summary, False),
            ("GET", "/v1/obs/runs"): (self._handle_obs_runs, False),
            ("POST", "/v1/x"): (self._make_eval_handler("x"), True),
            ("POST", "/v1/work"): (self._make_eval_handler("work"), True),
            ("POST", "/v1/hecr"): (self._make_eval_handler("hecr"), True),
            ("POST", "/v1/allocate"): (self._make_eval_handler("allocate"),
                                       True),
            ("POST", "/v1/stream/events"): (self._handle_stream_events,
                                            True),
            ("GET", "/v1/stream/state"): (self._handle_stream_state, False),
        }

    # -- lifecycle -----------------------------------------------------
    async def start(self, sock: Any = None) -> None:
        """Bind the socket and open the result cache and run store.

        ``sock`` optionally supplies an already-bound ``SO_REUSEPORT``
        socket — how supervisor workers share one port; ``None`` binds
        ``config.host:config.port``.
        """
        if not self.config.no_result_cache:
            from repro.batch import ResultCache, default_cache_dir
            self._result_cache = ResultCache(
                self.config.result_cache_dir or default_cache_dir())
        if not self.config.no_store:
            path = (Path(self.config.store_dir) / "runs.sqlite3"
                    if self.config.store_dir else default_store_path())
            try:
                self.store = RunStore(path)
            except Exception as exc:
                # Telemetry must never keep the service from serving.
                logging.getLogger("repro.service").warning(
                    "run-history store unavailable (%s); continuing "
                    "without persistence", exc)
                self.store = None
        if sock is not None:
            self._server = await asyncio.start_server(
                self._on_connection, sock=sock)
        else:
            self._server = await asyncio.start_server(
                self._on_connection, host=self.config.host,
                port=self.config.port)
        self._started_at = time.monotonic()

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the OS's choice)."""
        if self._server is None or not self._server.sockets:
            raise InvalidParameterError("service is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        return self.config.host

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Drain and shut down: the clean-exit path for SIGTERM/SIGINT."""
        await self.drain(self.config.drain_timeout)
        try:
            async with self._stream_lock:
                stream, self._stream = self._stream, None
                if stream is not None:  # finalise its run row: "ok"
                    stream.finish()
        finally:
            if self.store is not None:
                self._flush_store()
                self.store.close()
                self.store = None

    async def drain(self, timeout: float) -> None:
        """Stop accepting, finish in-flight work, then close connections.

        The sequence a load balancer expects: the listening socket
        closes first (no new connections), requests already being
        processed get up to ``timeout`` seconds to answer, and requests
        arriving on *existing* keep-alive connections during the drain
        are answered ``503`` + ``Retry-After`` instead of a reset.
        Idempotent; ``stop()`` calls it with the configured timeout.
        """
        self._draining = True
        server, self._server = self._server, None
        if server is not None:
            server.close()
        deadline = time.monotonic() + timeout
        while self._active_requests > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.005)
        # Whatever is still connected now is either idle keep-alive or
        # past its drain budget: close the transports so the per-
        # connection tasks unblock from read_request and exit.
        for writer in list(self._connections.values()):
            try:
                writer.close()
            except Exception:  # noqa: BLE001 - already-dead transports
                pass
        if server is not None:
            await server.wait_closed()
        # Let the handlers see their transports close and exit, rather
        # than be cancelled mid-close when the event loop shuts down.
        if self._connections:
            await asyncio.wait(list(self._connections), timeout=1.0)

    # -- connection handling -------------------------------------------
    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_header_bytes=self.config.max_header_bytes,
                        max_body_bytes=self.config.max_body_bytes)
                except HttpError as exc:
                    self._record(f"(malformed:{exc.status})", exc.status, 0.0)
                    writer.write(render_response(
                        exc.status, _json_bytes({"error": exc.message}),
                        keep_alive=exc.recoverable))
                    await writer.drain()
                    if not exc.recoverable:
                        break
                    continue
                if request is None:
                    break
                if self._draining:
                    # A keep-alive connection outlived the listening
                    # socket; tell the client to retry elsewhere rather
                    # than resetting its connection mid-request.
                    self.registry.counter(
                        "svc_shed_total",
                        "requests shed by admission control, by reason"
                    ).inc(reason="draining")
                    writer.write(render_response(
                        503, _json_bytes({"error": "shed: draining",
                                          "retry_after": 1.0}),
                        extra_headers={"Retry-After": "1"},
                        keep_alive=False))
                    await writer.drain()
                    break
                self._active_requests += 1
                try:
                    response = await self._respond(request)
                finally:
                    self._active_requests -= 1
                writer.write(render_response(
                    response.status, response.body,
                    content_type=response.content_type,
                    extra_headers=response.headers,
                    keep_alive=request.keep_alive))
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            finally:
                del self._connections[task]

    def _match(self, request: Request) -> tuple[
            str, Callable[[Request], Awaitable[_Response]] | None, bool]:
        """Resolve a request to ``(route_label, handler, sheddable)``."""
        exact = self._routes.get((request.method, request.path))
        if exact is not None:
            return request.path, exact[0], exact[1]
        prefix = "/v1/obs/runs/"
        if request.path.startswith(prefix) and len(request.path) > len(prefix):
            if request.method == "GET":
                return "/v1/obs/runs/{id}", self._handle_obs_run, False
            return "/v1/obs/runs/{id}", None, False  # 405
        prefix = "/v1/experiments/"
        if request.path.startswith(prefix) and len(request.path) > len(prefix):
            if request.method == "POST":
                return "/v1/experiments/{id}", self._handle_experiment_run, True
            return "/v1/experiments/{id}", None, False  # 405
        if any(path == request.path for _, path in self._routes):
            return request.path, None, False  # 405
        return "(unmatched)", None, False  # 404

    async def _respond(self, request: Request) -> _Response:
        route, handler, sheddable = self._match(request)
        start = time.perf_counter()
        span_id = new_span_id()
        token = _REQ_SPAN.set(span_id)
        try:
            return await self._respond_traced(request, route, handler,
                                              sheddable, start, span_id)
        finally:
            _REQ_SPAN.reset(token)

    async def _respond_traced(self, request: Request, route: str,
                              handler: Callable[[Request],
                                                Awaitable[_Response]] | None,
                              sheddable: bool, start: float,
                              span_id: str) -> _Response:
        if handler is None:
            status = 405 if route != "(unmatched)" else 404
            message = ("method not allowed" if status == 405 else
                       f"no route for {request.path!r}")
            response = _error_response(status, message)
            self._finish(route, response, start, request.method, span_id)
            return response

        if sheddable:
            decision = self.admission.admit()
            if not decision:
                self.registry.counter(
                    "svc_shed_total",
                    "requests shed by admission control, by reason"
                ).inc(reason=decision.reason)
                response = _error_response(
                    decision.status, f"shed: {decision.reason}",
                    headers={"Retry-After": decision.retry_after_header},
                    retry_after=decision.retry_after)
                self._finish(route, response, start, request.method, span_id,
                             shed=decision.reason)
                return response
            self.registry.gauge(
                "svc_inflight", "admitted requests currently in flight"
            ).set(self.admission.inflight)

        try:
            response = await self._run_with_deadline(handler, request)
        except asyncio.TimeoutError:
            response = _error_response(504, "deadline exceeded")
        except Exception as exc:  # noqa: BLE001 - the server must answer
            response = _classified_error(type(exc),
                                         f"{type(exc).__name__}: {exc}")
        finally:
            if sheddable:
                self.admission.release()
                self.registry.gauge(
                    "svc_inflight", "admitted requests currently in flight"
                ).set(self.admission.inflight)
        self._finish(route, response, start, request.method, span_id)
        return response

    def _finish(self, route: str, response: _Response, start: float,
                method: str, span_id: str, shed: str | None = None) -> None:
        """Stamp trace headers and record one finished request."""
        response.headers.setdefault("X-Repro-Trace-Id", self.tracer.trace_id)
        response.headers.setdefault("X-Repro-Span-Id", span_id)
        self._record(route, response.status, time.perf_counter() - start,
                     method=method, span_id=span_id, shed=shed)

    async def _run_with_deadline(
            self, handler: Callable[[Request], Awaitable[_Response]],
            request: Request) -> _Response:
        deadline_ms = request.header_float("x-repro-deadline-ms")
        deadline = (deadline_ms / 1000.0 if deadline_ms is not None
                    else self.config.deadline)
        if not (deadline and deadline > 0):
            return await handler(request)
        token = _DEADLINE.set(time.monotonic() + deadline)
        try:
            return await asyncio.wait_for(handler(request), timeout=deadline)
        finally:
            _DEADLINE.reset(token)

    def _record(self, route: str, code: int, seconds: float,
                method: str = "GET", *, span_id: str | None = None,
                shed: str | None = None) -> None:
        self.registry.counter(
            "svc_requests_total", "HTTP requests served, by route and code"
        ).inc(route=route, code=code)
        exemplar = ({"trace_id": self.tracer.trace_id, "span_id": span_id}
                    if span_id is not None
                    else {"trace_id": self.tracer.trace_id})
        self.registry.timer(
            "svc_request_seconds", "request wall time, by route"
        ).observe(seconds, exemplar=exemplar, route=route)
        # Pre-timed record via record_span(): concurrent asyncio tasks
        # must not push/pop the tracer's thread-local span stack.
        self.tracer.record_span(
            f"svc:{route}", duration=seconds, span_id=span_id,
            attrs={"code": code, "method": method})
        if self.config.slo_latency > 0:
            counts = self._slo_counts.setdefault(route, [0, 0])
            counts[1] += 1
            if code >= 500 or seconds > self.config.slo_latency:
                counts[0] += 1
            self.registry.gauge(
                "svc_slo_burn_rate",
                "error-budget burn rate, by route (bad-request fraction "
                "over the budget 1 - slo_objective; > 1 is out of SLO)"
            ).set(
                (counts[0] / counts[1]) / (1.0 - self.config.slo_objective),
                route=route)
        if _access_log.isEnabledFor(logging.INFO):
            _access_log.info("%s", orjson.dumps({
                "route": route, "method": method, "status": code,
                "latency_ms": round(seconds * 1000.0, 3),
                "trace_id": self.tracer.trace_id, "span_id": span_id,
                "shed": shed,
            }).decode())
        if (self.store is not None and route.startswith("/v1/")
                and not route.startswith("/v1/obs")):
            self._store_rows.append({
                "kind": "request", "label": route,
                "trace_id": self.tracer.trace_id, "status": str(code),
                "started_at": time.time(), "wall_seconds": seconds,
                "extra": {"method": method, "span_id": span_id,
                          "shed": shed}})
            if self._store_flush is None:
                self._store_flush = asyncio.get_running_loop().call_later(
                    _STORE_FLUSH_SECONDS, self._flush_store)

    def _flush_store(self) -> None:
        """Write the buffered request rows in one store transaction.

        Runs from the flush timer, before each ``/v1/obs/*`` read and in
        :meth:`stop`.  A failed write drops the rows (telemetry, never
        results) and raises nothing: ``RunStore`` catches sqlite errors.
        """
        if self._store_flush is not None:
            self._store_flush.cancel()
            self._store_flush = None
        rows, self._store_rows = self._store_rows, []
        if rows and self.store is not None:
            self.store.record_runs(rows)

    # -- handlers ------------------------------------------------------
    async def _handle_healthz(self, request: Request) -> _Response:
        payload: dict[str, Any] = {
            "status": "ok", "version": __version__,
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "inflight": self.admission.inflight,
        }
        if self.config.worker_index is not None:
            payload["worker"] = self.config.worker_index
        return _json_response(200, payload)

    def publish_cache_gauges(self) -> None:
        """Set the response-cache size gauges.

        Called when metrics are read (``/metrics``, a fleet worker's
        registry flush), not per request.
        """
        self.registry.gauge(
            "svc_response_cache_bytes",
            "bytes charged to the response cache's two segments (bodies "
            "plus per-entry overhead), at most --cache-bytes"
        ).set(self.cache.resident_bytes)
        self.registry.gauge(
            "svc_response_cache_entries",
            "responses held by the response cache's two segments"
        ).set(len(self.cache))

    async def _handle_metrics(self, request: Request) -> _Response:
        from repro.obs.export import prometheus_text

        self.publish_cache_gauges()
        text = prometheus_text(self.registry, exemplars=True)
        return _Response(200, text.encode("utf-8"), content_type=_PROM)

    async def _handle_experiment_index(self, request: Request) -> _Response:
        from repro.experiments.base import experiment_index

        return _json_response(200, {"experiments": experiment_index()})

    @staticmethod
    def _json_body(request: Request) -> dict[str, Any]:
        if not request.body:
            return {}
        try:
            body = orjson.loads(request.body)
        except orjson.JSONDecodeError as exc:
            raise InvalidParameterError(f"invalid JSON body: {exc}") from None
        if not isinstance(body, dict):
            raise InvalidParameterError("request body must be a JSON object")
        return body

    def _make_eval_handler(
            self, kind: str) -> Callable[[Request], Awaitable[_Response]]:
        async def handle(request: Request) -> _Response:
            payload = parse_eval_payload(kind, self._json_body(request))
            cache_key = None
            if self.cache.enabled:
                cache_key = self.cache.key(kind, payload)
                body = self.cache.get(cache_key)
                if body is not None:
                    self.registry.counter(
                        "svc_response_cache_hits_total",
                        "evaluation responses served from the response cache"
                    ).inc(kind=kind)
                    return _Response(200, body)
            # The solve never suspends, so wait_for cannot cut it short:
            # a request already past its deadline is refused here.
            deadline = _DEADLINE.get()
            if deadline is not None and time.monotonic() >= deadline:
                raise asyncio.TimeoutError
            # No suspension from the cache get above to the put below:
            # a concurrent duplicate finds the stored body.
            result = await self.batcher.submit(kind, payload)
            response = _json_response(200, result)
            if cache_key is not None:
                self.cache.put(cache_key, response.body)
            return response
        return handle

    async def _handle_experiment_run(self, request: Request) -> _Response:
        from repro.experiments.base import list_experiments

        experiment_id = request.path.rsplit("/", 1)[-1]
        if experiment_id not in list_experiments():
            return _error_response(
                404, f"unknown experiment {experiment_id!r}",
                known=list_experiments())
        body = self._json_body(request)
        kwargs = body.get("kwargs", {})
        if not isinstance(kwargs, dict):
            raise InvalidParameterError("kwargs must be a JSON object")
        from repro.batch import cache_key, run_batch
        from repro.io import result_to_dict

        trace_parent = _REQ_SPAN.get()

        def dispatch():
            # The executor thread has no ambient observation; install
            # one so the batch engine folds worker telemetry into this
            # service's registry.  The tracer rides along only when one
            # was injected (serve --trace / tests): an ambient tracer
            # switches auto-engine runs to the event engine, which the
            # untraced server must not do.
            observation = Observation(
                tracer=self.tracer if self._external_tracer else None,
                registry=self.registry)
            with observe(observation):
                return run_batch([experiment_id],
                                 kwargs_by_id={experiment_id: kwargs},
                                 jobs=self.config.jobs,
                                 cache=self._result_cache,
                                 trace_parent=trace_parent).items[0]

        item = await asyncio.get_running_loop().run_in_executor(None,
                                                                dispatch)
        error = item.error
        self.registry.counter(
            "svc_dispatch_single_flight_total",
            "experiment dispatches by single-flight outcome "
            "(leader computed / follower awaited / hit / local)"
        ).inc(experiment=experiment_id, outcome=item.outcome)
        if self.store is not None:
            self.store.record_run(
                kind="experiment", label=experiment_id,
                trace_id=self.tracer.trace_id,
                cache_key=cache_key(experiment_id, kwargs),
                status="error" if error is not None else "ok",
                wall_seconds=item.wall_seconds,
                extra={"cached": item.cached, "shards": item.shards,
                       "jobs": self.config.jobs, "span_id": trace_parent,
                       "dedup": item.outcome, "error": error})
        if error is not None:
            return _classified_error(error_class(error), error,
                                     experiment=experiment_id)
        return _json_response(200, {
            "experiment": experiment_id,
            "cached": item.cached,
            "wall_seconds": item.wall_seconds,
            "dedup": item.outcome,
            "result": result_to_dict(item.result),
        })

    # -- stream endpoints (docs/STREAM.md) ------------------------------
    def _new_stream_processor(self, body: dict[str, Any], events: list):
        """Build the session processor from the creating request's body.

        Session knobs (``window``, ``params``, ``what_if``,
        ``calibrate``, ``forget``) are read only here — on the first
        POST, or one carrying ``reset``; later posts just feed events.
        Every event of the post must fall in a window of the new
        session, checked before the processor (and its run row) exists.
        """
        from repro.stream import StreamProcessor, WindowManager

        window = body.get("window", 10.0)
        if isinstance(window, bool) or not isinstance(window, (int, float)):
            raise InvalidParameterError(
                f"window must be a positive number, got {window!r}")
        calibrate = body.get("calibrate", True)
        if not isinstance(calibrate, bool):
            raise InvalidParameterError(
                f"calibrate must be a boolean, got {calibrate!r}")
        what_if = body.get("what_if")
        if what_if is not None and not isinstance(what_if, (list, tuple)):
            raise InvalidParameterError(
                "what_if must be an array of positive rho values")
        forget = body.get("forget", 0.35)
        if isinstance(forget, bool) or not isinstance(forget, (int, float)):
            raise InvalidParameterError(
                f"forget must be a number in (0, 1], got {forget!r}")
        params = _parse_params(body.get("params"))
        windows = WindowManager(float(window))
        for event in events:
            windows.index_of(event.time)
        return StreamProcessor(
            float(window), params=params,
            calibrate=calibrate, what_if=what_if, forget=float(forget),
            registry=self.registry, store=self.store, label="service")

    def _stream_refusal(self) -> _Response | None:
        """409 under ``workers > 1``: the session lives in one process.

        ``SO_REUSEPORT`` spreads requests over the workers, so each would
        hold its own partial session and windows would split silently.
        A refused request is better than a wrong window.
        """
        if self.config.workers <= 1:
            return None
        return _error_response(
            409, f"stream sessions need a single worker; this server runs "
                 f"{self.config.workers} workers, which would split the "
                 f"session's windows", reason="multi_worker")

    async def _handle_stream_events(self, request: Request) -> _Response:
        from repro.stream import event_from_dict

        refusal = self._stream_refusal()
        if refusal is not None:
            return refusal
        body = self._json_body(request)
        raw = body.get("events", [])
        if not isinstance(raw, list):
            raise InvalidParameterError(
                "events must be a JSON array of event objects")
        # Check the whole post first: a refused post changes nothing.
        events = []
        for index, obj in enumerate(raw):
            if not isinstance(obj, dict):
                raise StreamEventError(
                    f"event {index} must be a JSON object, "
                    f"got {type(obj).__name__}")
            events.append(event_from_dict(obj))
        async with self._stream_lock:
            if body.get("reset") or self._stream is None:
                processor = self._new_stream_processor(body, events)
                if self._stream is not None:
                    self._stream.finish()
                self._stream = processor
            else:
                processor = self._stream
                for event in events:
                    processor.windows.index_of(event.time)
            records: list[dict] = []
            for event in events:
                records.extend(processor.feed(event))
            if body.get("finish"):
                records.extend(processor.finish())
                self._stream = None
            state = processor.state_view()
        self.registry.counter(
            "svc_stream_events_total",
            "events accepted by POST /v1/stream/events").inc(len(events))
        return _json_response(200, {"accepted": len(events),
                                    "windows": records, "state": state})

    async def _handle_stream_state(self, request: Request) -> _Response:
        refusal = self._stream_refusal()
        if refusal is not None:
            return refusal
        async with self._stream_lock:
            if self._stream is None:
                return _json_response(200, {"active": False, "state": None})
            return _json_response(200, {"active": True,
                                        "state": self._stream.state_view()})

    # -- observability endpoints ---------------------------------------
    async def _handle_obs_summary(self, request: Request) -> _Response:
        self._flush_store()
        store = self.store
        slo = {
            route: {"requests": counts[1], "bad": counts[0],
                    "burn_rate": round((counts[0] / counts[1])
                                       / (1.0 - self.config.slo_objective), 6)}
            for route, counts in sorted(self._slo_counts.items()) if counts[1]}
        return _json_response(200, {
            "store": store.summary() if store is not None else None,
            "store_enabled": store is not None,
            "trace_id": self.tracer.trace_id,
            "slo": {"latency_seconds": self.config.slo_latency,
                    "objective": self.config.slo_objective, "routes": slo},
        })

    async def _handle_obs_runs(self, request: Request) -> _Response:
        self._flush_store()
        store = self.store
        if store is None:
            return _error_response(503, "run-history store is disabled")
        return _json_response(200, {"runs": store.runs(limit=50)})

    async def _handle_obs_run(self, request: Request) -> _Response:
        self._flush_store()
        store = self.store
        if store is None:
            return _error_response(503, "run-history store is disabled")
        run_id = request.path.rsplit("/", 1)[-1]
        run = store.get_run(run_id)
        if run is None:
            return _error_response(404, f"no stored run matches {run_id!r}")
        return _json_response(200, {
            "run": run, "spans": store.spans(run["run_id"])})

"""Pre-fork supervisor: N worker processes behind one listening port.

``repro-hetero serve --workers N`` runs one :class:`Supervisor` whose
only jobs are process lifecycle and aggregation — every request is
served by an ordinary single-process :class:`~repro.service.app.
ReproService` inside a forked worker:

* **Port sharing.**  The parent binds a ``SO_REUSEPORT``
  *placeholder* socket — never listening, it exists to resolve
  ``port=0`` and keep the port reserved across worker restarts — and
  every worker binds + listens on its own ``SO_REUSEPORT`` socket,
  letting the kernel load-balance accepts.  A platform without
  ``SO_REUSEPORT`` cannot run a fleet: the supervisor refuses to start.
* **Budget split.**  The configured ``rate`` / ``max_inflight`` /
  ``burst`` are cluster totals; each worker gets ``rate/N``,
  ``ceil(inflight/N)``, and a burst share inflated by
  :data:`BURST_SHARE` (kernel balancing is stochastic, so a worker may
  transiently see more than 1/N of a burst).  Shedding semantics stay
  correct in aggregate without any cross-process token traffic.
* **Crash restarts.**  A worker that dies after becoming ready is
  respawned with exponential backoff; more than ``respawn_budget``
  deaths inside one ``stable_after`` window means the worker is
  systematically broken — the supervisor tears the fleet down and
  exits ``4`` with one clear stderr line.  A worker that fails *before*
  becoming ready is a configuration problem, reported immediately with
  exit code ``1`` (no respawn storm).
* **Fan-down.**  SIGTERM/SIGINT to the supervisor forwards SIGTERM to
  every worker; each drains (stop accepting → finish in-flight → 503
  stragglers) within ``drain_timeout`` and the supervisor reaps them,
  leaving no orphans.
* **Aggregation.**  Each worker's registry carries a constant
  ``worker`` label and is flushed (atomically) to a JSON dump file;
  ``--metrics-port`` serves a supervisor-side ``GET /metrics`` that
  merges the dumps with the supervisor's own series
  (``svc_supervisor_restarts_total{worker}``,
  ``svc_supervisor_workers``) plus a ``GET /healthz`` fleet view.
  The run directory holds nothing else.  Workers share the on-disk
  result cache, so an experiment dispatched to several workers at once
  computes once; each worker keeps its own in-memory response cache.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import math
import multiprocessing
import os
import shutil
import signal
import socket
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable

from repro.errors import InvalidParameterError, ReproError
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.service.app import ReproService
from repro.service.config import ServiceConfig
from repro.util.fsio import atomic_write_text

__all__ = ["Supervisor", "worker_config", "BURST_SHARE",
           "EXIT_RESPAWN_BUDGET"]

#: Extra burst headroom granted to each worker beyond its 1/N share.
BURST_SHARE = 0.25

#: Supervisor exit code: a worker kept crashing past its respawn budget.
EXIT_RESPAWN_BUDGET = 4

def _log(message: str) -> None:
    print(f"repro-hetero supervisor: {message}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# per-worker configuration
# ---------------------------------------------------------------------------

def worker_config(config: ServiceConfig, index: int, *,
                  port: int | None = None,
                  metrics_flush_path: str | None = None) -> ServiceConfig:
    """One worker's derived config: its slice of the cluster budgets.

    ``rate`` and ``max_inflight`` are divided by ``workers`` (inflight
    rounds up so every worker can hold at least one request);  ``burst``
    gets a ``1/N`` share inflated by :data:`BURST_SHARE` — capped at
    the original burst — because the kernel's accept balancing is
    stochastic, not round-robin.  Rate ``0`` (unlimited) stays ``0``.
    """
    workers = config.workers
    if not (0 <= index < workers):
        raise InvalidParameterError(
            f"worker index {index!r} out of range for {workers} workers")
    rate = config.rate / workers if config.rate > 0 else 0.0
    inflight = max(1, math.ceil(config.max_inflight / workers))
    burst = config.burst
    if config.rate > 0:
        burst = max(1.0, min(config.burst,
                             (config.burst / workers) * (1.0 + BURST_SHARE)))
    return dataclasses.replace(
        config,
        worker_index=index,
        port=port if port is not None else config.port,
        rate=rate, max_inflight=inflight, burst=burst,
        metrics_flush_path=metrics_flush_path)


# ---------------------------------------------------------------------------
# the worker process
# ---------------------------------------------------------------------------

class _MetricsFlusher:
    """Periodically publish one worker's registry dump, atomically."""

    def __init__(self, registry: MetricsRegistry, path: str,
                 interval: float, before: Callable[[], None]) -> None:
        self._registry = registry
        #: Runs before each dump, to set gauges read at export time.
        self._before = before
        self._path = path
        self._interval = max(interval, 0.05)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-metrics-flush")

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self.flush()
        self.flush()  # final flush so shutdown-time counts survive

    def flush(self) -> None:
        self._before()
        try:
            atomic_write_text(self._path, json.dumps(self._registry.dump()))
        except OSError:
            pass  # aggregation is best-effort colour, never fatal


def _reuseport_socket(host: str, port: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
    except BaseException:
        sock.close()
        raise
    return sock


def _worker_main(config: ServiceConfig, conn: Any) -> None:
    """Entry point of one forked worker (runs until SIGTERM)."""
    # The supervisor coordinates shutdown via SIGTERM; a terminal ^C
    # delivers SIGINT to the whole process group, which workers must
    # ignore or they race their own drain.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    registry = MetricsRegistry(
        constant_labels={"worker": str(config.worker_index)})
    set_default_registry(registry)
    try:
        asyncio.run(_worker_async(config, conn, registry))
    except BaseException as exc:  # noqa: BLE001 - report, then die visibly
        with contextlib.suppress(Exception):
            conn.send(("error", type(exc).__name__, str(exc)))
        raise SystemExit(1) from exc


async def _worker_async(config: ServiceConfig, conn: Any,
                        registry: MetricsRegistry) -> None:
    service = ReproService(config, registry=registry)
    try:
        await service.start(sock=_reuseport_socket(config.host, config.port))
    except BaseException as exc:  # noqa: BLE001 - the pipe is the report
        conn.send(("error", type(exc).__name__, str(exc)))
        return
    conn.send(("ready", service.port))
    conn.close()

    flusher = None
    if config.metrics_flush_path:
        flusher = _MetricsFlusher(registry, config.metrics_flush_path,
                                  config.metrics_flush_interval,
                                  service.publish_cache_gauges)
        flusher.start()

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    with contextlib.suppress(NotImplementedError, ValueError):
        loop.add_signal_handler(signal.SIGTERM, stop.set)
    try:
        await stop.wait()
    finally:
        await service.stop()
        if flusher is not None:
            flusher.stop()


# ---------------------------------------------------------------------------
# the supervisor
# ---------------------------------------------------------------------------

class _WorkerSlot:
    __slots__ = ("index", "process", "pipe", "respawns", "spawned_at",
                 "ready")

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Any = None
        self.pipe: Any = None
        self.respawns = 0
        self.spawned_at = 0.0
        self.ready = False


class Supervisor:
    """Owns the worker fleet of one ``serve --workers N`` invocation.

    ``run()`` blocks until shutdown and returns the process exit code
    (``0`` clean, ``1`` worker startup failure, ``4`` respawn
    budget exhausted).  For in-process callers (tests, benchmarks) use
    ``install_signals=False``, run :meth:`run` on a thread, await
    :meth:`wait_ready`, and later call :meth:`initiate_stop`.
    """

    def __init__(self, config: ServiceConfig, *,
                 install_signals: bool = True,
                 respawn_budget: int = 5,
                 backoff_base: float = 0.25,
                 backoff_cap: float = 5.0,
                 stable_after: float = 30.0,
                 startup_timeout: float = 30.0) -> None:
        if config.workers < 1:
            raise InvalidParameterError(
                f"workers must be >= 1, got {config.workers!r}")
        if not hasattr(socket, "SO_REUSEPORT"):
            raise InvalidParameterError(
                "serve --workers needs SO_REUSEPORT, which this platform "
                "lacks; run a single worker instead")
        self.config = config
        self.install_signals = install_signals
        self.respawn_budget = int(respawn_budget)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.stable_after = float(stable_after)
        self.startup_timeout = float(startup_timeout)
        self.registry = MetricsRegistry()
        self.port: int | None = None
        self.metrics_port: int | None = None
        self.exit_reason: str | None = None
        self._ctx = multiprocessing.get_context("fork")
        self._slots = [_WorkerSlot(i) for i in range(config.workers)]
        self._stop = threading.Event()
        self._ready = threading.Event()
        self._startup_error: tuple[str, str] | None = None
        self._placeholder: socket.socket | None = None
        self._run_dir: str | None = None
        self._owns_run_dir = False
        self._metrics_httpd: Any = None

    # -- external control ----------------------------------------------
    def initiate_stop(self) -> None:
        """Request a clean fan-down (thread-safe, signal-safe)."""
        self._stop.set()

    def wait_ready(self, timeout: float = 30.0) -> int:
        """Block until every worker accepted its socket; returns the port."""
        if not self._ready.wait(timeout):
            raise ReproError("supervisor workers did not come up in time")
        if self._startup_error is not None:
            name, message = self._startup_error
            raise ReproError(f"worker failed to start: {name}: {message}")
        assert self.port is not None
        return self.port

    # -- socket strategy -----------------------------------------------
    def _bind(self) -> None:
        # Placeholder: resolves port=0 and keeps the port reserved while
        # workers restart, but never listens — a bound non-listening
        # socket takes no part in accept balancing.
        self._placeholder = _reuseport_socket(self.config.host,
                                              self.config.port)
        self.port = self._placeholder.getsockname()[1]

    # -- worker lifecycle ----------------------------------------------
    def _flush_path(self, index: int) -> str:
        assert self._run_dir is not None
        return str(Path(self._run_dir) / f"worker-{index}.metrics.json")

    def _spawn(self, slot: _WorkerSlot) -> None:
        recv, send = self._ctx.Pipe(duplex=False)
        cfg = worker_config(
            self.config, slot.index, port=self.port,
            metrics_flush_path=self._flush_path(slot.index))
        slot.process = self._ctx.Process(
            target=_worker_main, args=(cfg, send),
            name=f"repro-worker-{slot.index}", daemon=False)
        slot.pipe = recv
        slot.ready = False
        slot.spawned_at = time.monotonic()
        slot.process.start()
        send.close()
        self.registry.gauge(
            "svc_supervisor_workers", "configured worker count"
        ).set(self.config.workers)

    def _await_ready(self, slot: _WorkerSlot, timeout: float) -> str | None:
        """Wait for the slot's ready/error message; None means ready."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if slot.pipe.poll(0.05):
                try:
                    message = slot.pipe.recv()
                except (EOFError, OSError):
                    return "worker closed its pipe before reporting ready"
                if message[0] == "ready":
                    slot.ready = True
                    return None
                if message[0] == "error":
                    self._startup_error = (message[1], message[2])
                    return f"{message[1]}: {message[2]}"
            if not slot.process.is_alive():
                return (f"worker {slot.index} died during startup "
                        f"(exit code {slot.process.exitcode})")
            if self._stop.is_set():
                return None  # shutting down anyway
        return f"worker {slot.index} not ready after {timeout:.0f}s"

    # -- run loop -------------------------------------------------------
    def run(self) -> int:
        """Serve until stopped; returns the supervisor's exit code."""
        try:
            return self._run()
        finally:
            self._cleanup()

    def _run(self) -> int:
        self._bind()
        self._run_dir = tempfile.mkdtemp(prefix="repro-supervisor-")
        self._owns_run_dir = True

        if self.install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(ValueError):  # non-main thread
                    signal.signal(signum,
                                  lambda *_args: self._stop.set())

        for slot in self._slots:
            self._spawn(slot)
            failure = self._await_ready(slot, self.startup_timeout)
            if failure is not None:
                _log(f"startup failed: {failure}")
                self.exit_reason = f"startup: {failure}"
                self._ready.set()
                self._fan_down()
                return 1

        if self.config.metrics_port is not None:
            self._start_metrics_endpoint()
        self._ready.set()
        _log(f"{self.config.workers} worker(s) ready on "
             f"{self.config.host}:{self.port}")

        code = self._monitor()
        self._fan_down()
        return code

    def _monitor(self) -> int:
        while not self._stop.is_set():
            self._stop.wait(0.05)
            for slot in self._slots:
                if self._stop.is_set():
                    break
                if slot.process is None or slot.process.is_alive():
                    continue
                exitcode = slot.process.exitcode
                now = time.monotonic()
                if now - slot.spawned_at > self.stable_after:
                    slot.respawns = 0  # it ran fine for a while; forgive
                slot.respawns += 1
                self.registry.counter(
                    "svc_supervisor_restarts_total",
                    "worker crash-restarts performed by the supervisor"
                ).inc(worker=slot.index)
                if slot.respawns > self.respawn_budget:
                    _log(f"worker {slot.index} crashed {slot.respawns} "
                         f"times (last exit code {exitcode}); respawn "
                         f"budget ({self.respawn_budget}) exhausted — "
                         f"shutting down")
                    self.exit_reason = "respawn budget exhausted"
                    return EXIT_RESPAWN_BUDGET
                backoff = min(self.backoff_cap,
                              self.backoff_base * 2 ** (slot.respawns - 1))
                _log(f"worker {slot.index} exited with code {exitcode}; "
                     f"respawn {slot.respawns}/{self.respawn_budget} "
                     f"in {backoff:.2f}s")
                if self._stop.wait(backoff):
                    break
                self._spawn(slot)
                failure = self._await_ready(slot, self.startup_timeout)
                if failure is not None and not self._stop.is_set():
                    _log(f"respawned worker {slot.index} failed: {failure}")
                    # Counts against the same budget on its next death;
                    # a dead-on-arrival respawn loops straight back here.
        self.exit_reason = self.exit_reason or "stopped"
        return 0

    def _fan_down(self) -> None:
        deadline = time.monotonic() + self.config.drain_timeout + 2.0
        for slot in self._slots:
            if slot.process is not None and slot.process.is_alive():
                with contextlib.suppress(ProcessLookupError, OSError):
                    os.kill(slot.process.pid, signal.SIGTERM)
        for slot in self._slots:
            if slot.process is None:
                continue
            remaining = max(0.1, deadline - time.monotonic())
            slot.process.join(timeout=remaining)
            if slot.process.is_alive():
                _log(f"worker {slot.index} ignored SIGTERM; killing")
                slot.process.kill()
                slot.process.join(timeout=2.0)

    def _cleanup(self) -> None:
        if self._metrics_httpd is not None:
            with contextlib.suppress(Exception):
                self._metrics_httpd.shutdown()
                self._metrics_httpd.server_close()
            self._metrics_httpd = None
        if self._placeholder is not None:
            with contextlib.suppress(OSError):
                self._placeholder.close()
        self._placeholder = None
        if self._owns_run_dir and self._run_dir:
            shutil.rmtree(self._run_dir, ignore_errors=True)
        self._run_dir = None

    # -- aggregation ----------------------------------------------------
    def aggregate_registry(self) -> MetricsRegistry:
        """A fresh registry merging every worker dump + supervisor series.

        Worker cells already carry their ``worker`` label (constant
        labels are baked in at update time), so the merge keeps every
        per-worker series distinct; counters add, gauges keep maxima.
        """
        merged = MetricsRegistry()
        if self._run_dir is not None:
            for index in range(self.config.workers):
                try:
                    dump = json.loads(Path(self._flush_path(index))
                                      .read_text(encoding="utf-8"))
                except (OSError, ValueError):
                    continue  # worker has not flushed yet
                with contextlib.suppress(Exception):
                    merged.merge(dump)
        merged.merge(self.registry.dump())
        return merged

    def fleet_health(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "workers": [
                {"index": slot.index,
                 "pid": slot.process.pid if slot.process else None,
                 "alive": bool(slot.process and slot.process.is_alive()),
                 "respawns": slot.respawns}
                for slot in self._slots],
            "port": self.port,
        }

    def _start_metrics_endpoint(self) -> None:
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        from repro.obs.export import prometheus_text

        supervisor = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - stdlib API
                if self.path == "/metrics":
                    body = prometheus_text(
                        supervisor.aggregate_registry()).encode("utf-8")
                    ctype = "text/plain; version=0.0.4; charset=utf-8"
                elif self.path == "/healthz":
                    body = (json.dumps(supervisor.fleet_health())
                            .encode("utf-8") + b"\n")
                    ctype = "application/json"
                else:
                    self.send_error(404)
                    return
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: Any) -> None:
                pass  # the access log belongs to the workers

        self._metrics_httpd = ThreadingHTTPServer(
            (self.config.host, self.config.metrics_port), Handler)
        self.metrics_port = self._metrics_httpd.server_address[1]
        thread = threading.Thread(target=self._metrics_httpd.serve_forever,
                                  name="repro-supervisor-metrics",
                                  daemon=True)
        thread.start()
        _log(f"aggregate /metrics on "
             f"{self.config.host}:{self.metrics_port}")

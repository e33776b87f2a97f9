"""Service configuration: one validated, immutable bundle of tunables.

Defaults are chosen for a loopback development server; the CLI's
``serve`` subcommand exposes the operationally interesting knobs
(``--max-inflight``, ``--rate``, ``--cache-bytes``, …) and leaves the
rest at these values.  Validation happens at construction so a
misconfigured server refuses to start instead of misbehaving under
load.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InvalidParameterError

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Every tunable of a :class:`~repro.service.app.ReproService`.

    Parameters
    ----------
    host, port:
        Bind address.  ``port=0`` asks the OS for an ephemeral port
        (the bound port is reported by ``ReproService.port``).
    max_inflight:
        Admitted-but-unanswered request ceiling; request number
        ``max_inflight + 1`` is shed with ``503`` + ``Retry-After``.
    rate, burst:
        Token-bucket admission control: sustained requests/second and
        bucket capacity.  ``rate=0`` disables rate limiting.  An empty
        bucket sheds with ``429`` + ``Retry-After``.
    deadline:
        Default per-request deadline in seconds (``0`` = none).  A
        request may lower/raise its own via the ``X-Repro-Deadline-Ms``
        header; a request whose deadline has passed answers ``504``.
        An evaluation checks it just before its inline solve, which is
        never interrupted once started.
    cache_bytes:
        Byte budget of the LRU response cache for the deterministic
        evaluation endpoints, one per process (each ``serve --workers N``
        worker keeps its own, so the fleet holds ``N × cache_bytes``).
        Each entry is charged its body plus a fixed per-entry overhead;
        a body over ``cache_bytes // 8`` is answered but not stored.  A
        first answer waits in a probation segment of one such body and
        moves to the rest of the budget when it is asked for again, so
        answers nobody repeats hold at most ``cache_bytes // 8`` plus
        one overhead.  ``cache_bytes=0`` disables it.  Evaluations are
        solved inline between the cache lookup and store, so the cache
        is also the dedup layer: concurrent identical requests cost one
        solve.
    jobs, no_result_cache, result_cache_dir:
        Experiment dispatch: worker processes for
        :func:`repro.batch.run_batch` and its on-disk
        :class:`~repro.batch.cache.ResultCache` location / kill switch.
        Dispatch single-flight dedup lives on that cache: with it on,
        concurrent identical dispatches (in any worker) compute once.
    max_body_bytes, max_header_bytes:
        Hard HTTP limits; oversized requests are rejected with ``413``.
    no_store, store_dir:
        The run-history store (``repro.obs.store.RunStore``): every
        ``/v1/*`` request and experiment dispatch is persisted for the
        ``obs`` CLI and the ``/v1/obs/*`` endpoints.  ``no_store=True``
        disables persistence entirely; ``store_dir`` overrides the
        default state directory.
    slo_latency, slo_objective:
        The per-route SLO behind the ``svc_slo_burn_rate`` gauges: a
        request is "good" when it answers below ``slo_latency`` seconds
        with a non-5xx status, and the burn rate is the bad fraction
        divided by the error budget ``1 - slo_objective`` (burn > 1
        means the route is burning budget faster than the SLO allows).
        ``slo_latency=0`` disables the gauges.
    log_level:
        Threshold for the service's stderr logging (``repro.service``
        loggers): one JSON access-log line per request is emitted at
        INFO, lifecycle messages at INFO, problems at WARNING+.
    workers, worker_index:
        Pre-fork scale-out: ``workers > 1`` makes ``serve`` run a
        supervisor with that many worker processes sharing the port
        through ``SO_REUSEPORT``; on a platform without it the
        supervisor refuses to start.  ``worker_index``
        identifies one worker inside its own process — the supervisor
        sets it; user configs leave it at ``None``.  Note the global
        ``rate``/``max_inflight``/``burst`` are *totals*: the
        supervisor splits them into per-worker budgets.
    drain_timeout:
        Seconds a stopping server waits for in-flight requests after it
        stops accepting; new requests during the drain answer ``503`` +
        ``Retry-After`` instead of a connection reset.
    metrics_flush_path, metrics_flush_interval:
        Worker-side metrics export for the supervisor aggregate: each
        worker atomically rewrites a JSON registry dump at this path
        every ``metrics_flush_interval`` seconds.  Set by the
        supervisor; ``None`` disables flushing.
    metrics_port:
        Supervisor-side aggregate ``/metrics`` + ``/healthz`` listener
        (``0`` = ephemeral, ``None`` disables the aggregate endpoint).
    """

    host: str = "127.0.0.1"
    port: int = 8023
    max_inflight: int = 64
    rate: float = 0.0
    burst: float = 64.0
    deadline: float = 0.0
    cache_bytes: int = 4 << 20
    jobs: int = 1
    no_result_cache: bool = False
    result_cache_dir: str | None = None
    max_body_bytes: int = 1 << 20
    max_header_bytes: int = 32 << 10
    no_store: bool = False
    store_dir: str | None = None
    slo_latency: float = 0.25
    slo_objective: float = 0.99
    log_level: str = "warning"
    workers: int = 1
    worker_index: int | None = None
    drain_timeout: float = 5.0
    metrics_flush_path: str | None = None
    metrics_flush_interval: float = 0.5
    metrics_port: int | None = None

    def __post_init__(self) -> None:
        if not (0 <= self.port <= 65535):
            raise InvalidParameterError(f"port must be in [0, 65535], got {self.port!r}")
        for name, minimum in (("rate", 0.0), ("deadline", 0.0)):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool) \
                    or value != value or value < minimum:
                raise InvalidParameterError(
                    f"{name} must be a number >= {minimum}, got {value!r}")
        for name, minimum in (("max_inflight", 1),
                              ("jobs", 1), ("cache_bytes", 0),
                              ("max_body_bytes", 1), ("max_header_bytes", 1)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < minimum:
                raise InvalidParameterError(
                    f"{name} must be an integer >= {minimum}, got {value!r}")
        if self.rate > 0 and not self.burst >= 1:
            raise InvalidParameterError(
                f"burst must be >= 1 when rate limiting is on, got {self.burst!r}")
        if not isinstance(self.slo_latency, (int, float)) \
                or isinstance(self.slo_latency, bool) \
                or self.slo_latency != self.slo_latency or self.slo_latency < 0:
            raise InvalidParameterError(
                f"slo_latency must be a number >= 0, got {self.slo_latency!r}")
        if not isinstance(self.slo_objective, (int, float)) \
                or isinstance(self.slo_objective, bool) \
                or not (0.0 < self.slo_objective < 1.0):
            raise InvalidParameterError(
                f"slo_objective must be in (0, 1), got {self.slo_objective!r}")
        if self.log_level not in ("debug", "info", "warning", "error"):
            raise InvalidParameterError(
                f"log_level must be one of debug/info/warning/error, "
                f"got {self.log_level!r}")
        if not isinstance(self.workers, int) or isinstance(self.workers, bool) \
                or self.workers < 1:
            raise InvalidParameterError(
                f"workers must be an integer >= 1, got {self.workers!r}")
        if self.worker_index is not None and (
                not isinstance(self.worker_index, int)
                or isinstance(self.worker_index, bool)
                or self.worker_index < 0):
            raise InvalidParameterError(
                f"worker_index must be None or an integer >= 0, "
                f"got {self.worker_index!r}")
        for name in ("drain_timeout", "metrics_flush_interval"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool) \
                    or value != value or value < 0:
                raise InvalidParameterError(
                    f"{name} must be a number >= 0, got {value!r}")
        if self.metrics_port is not None and not (0 <= self.metrics_port <= 65535):
            raise InvalidParameterError(
                f"metrics_port must be None or in [0, 65535], "
                f"got {self.metrics_port!r}")

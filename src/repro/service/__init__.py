"""`repro.service`: an async serving layer for the paper's hot queries.

The ROADMAP's north star is an online system, not a pile of one-shot
CLI processes.  This package turns the library's small, hot, cacheable
computations — ``X(P)``, ``W(L;P)``, HECR, FIFO/LP allocations, and
registered experiments — into JSON-over-HTTP endpoints served by a
single-process :mod:`asyncio` server written directly on asyncio
streams (stdlib only; no new runtime dependencies).

Layout
------
:mod:`repro.service.config`
    :class:`ServiceConfig` — every tunable in one validated object.
:mod:`repro.service.http`
    A minimal HTTP/1.1 request parser / response writer for asyncio
    streams, with hard header/body limits.
:mod:`repro.service.admission`
    Token-bucket rate limiting and the max-in-flight counter behind
    429/503 load shedding.
:mod:`repro.service.respcache`
    The LRU response cache, one per process (keyed like the
    batch layer's :class:`~repro.batch.cache.ResultCache`).
:mod:`repro.service.coalescer`
    Evaluation solving: each request is solved inline by its handler,
    behind the response cache, bit-identically to a direct library
    call.
:mod:`repro.service.app`
    :class:`ReproService` — routing, handlers, deadlines, metrics.
:mod:`repro.service.client`
    :class:`ServiceClient` — a small blocking client for tests, the
    load generator, and scripts.
:mod:`repro.service.runtime`
    Blocking entry points: :func:`run_service` (the CLI's ``serve``)
    and :class:`ServiceThread` (a background server for tests).
:mod:`repro.service.supervisor`
    :class:`Supervisor` — the pre-fork multi-worker mode behind
    ``serve --workers N``: SO_REUSEPORT port sharing, per-worker
    admission budgets, crash restarts, aggregate metrics.

See ``docs/SERVICE.md`` for endpoint semantics, dedup guarantees,
shedding behaviour, and the multi-worker scale-out model.
"""

from repro._lazy import lazy_exports

__all__ = ["ReproService", "ServiceClient", "ServiceError", "ServiceConfig",
           "ServiceThread", "Supervisor", "run_service"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.service.app": ("ReproService",),
    "repro.service.client": ("ServiceClient", "ServiceError"),
    "repro.service.config": ("ServiceConfig",),
    "repro.service.runtime": ("ServiceThread", "run_service"),
    "repro.service.supervisor": ("Supervisor",),
})

"""Start the service with timing shims around each layer's entry points.

Usage::

    python benchmarks/e2e/traced_serve.py --spans PATH serve --port 0 ...

Everything after ``--spans PATH`` goes to ``repro.cli.main``.  Before
that, the functions behind each ledger layer are replaced, in the
namespace their caller looks them up in, by wrappers that record a span
``(name, start, end, span_id, parent_id, request)``; nothing under
``src/`` changes.  The request id comes from the ``X-Bench-Req`` header
the load generator sends, and ``http.read`` starts no earlier than its
``X-Bench-Sent`` stamp.  Spans stay in memory until the server shuts
down (SIGTERM), then go to ``PATH`` as JSON.

Requests and spans are linked three ways:

* in the connection's asyncio task, through a context variable set once
  the request has been read;
* in the coalescer's drain task, through the identity of the payload
  each waiter submitted, so a micro-batch's ``solve`` (and everything
  under it) is charged to every request it answered;
* in executor threads (experiment dispatch), to the one request being
  handled — the dispatch workload keeps a single connection.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import sys
from time import perf_counter

#: ``(innermost span id or None, request ids)`` of the running code.
_CONTEXT: contextvars.ContextVar[tuple | None] = contextvars.ContextVar(
    "e2e_span_context", default=None)


class Recorder:
    """In-memory spans and counts of one traced server."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: list[tuple] = []
        #: Request id → its open ``handler`` span id.
        self.handling: dict[str, int] = {}
        #: id(payload) → (``coalescer.wait`` span id, request ids).
        self.waiting: dict[int, tuple] = {}
        self.next_id = itertools.count(1).__next__

    def context(self) -> tuple:
        found = _CONTEXT.get()
        if found is not None:
            return found
        handling = self.handling.copy()
        if len(handling) == 1:
            (request, span_id), = handling.items()
            return span_id, (request,)
        return None, ()

    def record(self, name: str, start: float, end: float, span_id: int,
               parent: int | None, requests: tuple) -> None:
        for request in requests:
            self.spans.append((name, start, end, span_id, parent, request))

    def count(self, name: str, value: float, requests: tuple) -> None:
        if requests:
            self.counts.append((name, value, requests[0]))

    def timed(self, name: str, fn, after=None):
        """``fn`` wrapped to record a ``name`` span per linked request.

        ``after(result, requests)`` runs once ``fn`` has returned.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, requests = self.context()
            span_id = self.next_id()
            token = _CONTEXT.set((span_id, requests))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                _CONTEXT.reset(token)
                self.record(name, start, end, span_id, parent, requests)
            if after is not None:
                after(result, requests)
            return result
        return wrapper

    def timed_async(self, name: str, fn, enter):
        """Coroutine ``fn`` wrapped like :meth:`timed`.

        ``enter(span_id, requests, *args)`` runs first and returns the
        callable that undoes it once ``fn`` is done.
        """
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            parent, requests = self.context()
            span_id = self.next_id()
            leave = enter(span_id, requests, *args)
            token = _CONTEXT.set((span_id, requests))
            start = perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = perf_counter()
                _CONTEXT.reset(token)
                leave()
                self.record(name, start, end, span_id, parent, requests)
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh,
                      separators=(",", ":"))


def _patch(owner, attr: str, wrapper_for) -> None:
    original = inspect.getattr_static(owner, attr)
    if isinstance(original, staticmethod):
        setattr(owner, attr, staticmethod(wrapper_for(original.__func__)))
    else:
        setattr(owner, attr, wrapper_for(original))


def install(rec: Recorder) -> None:
    """Wrap every ledger layer (see ``ledger.LAYERS``)."""
    import repro.batch
    import repro.io
    import repro.service.app as app
    import repro.service.coalescer as coalescer
    import repro.stream
    import repro.stream.engine as engine
    from repro.batch.cache import ResultCache
    from repro.core.batch_kernels import ProfileBatch
    from repro.obs.store import RunStore
    from repro.service.admission import AdmissionController
    from repro.service.respcache import ResponseCache
    from repro.stream.calibrate import Calibrator
    from repro.stream.windows import WindowManager

    def read_request(original):
        @functools.wraps(original)
        async def wrapper(reader, **kwargs):
            start = perf_counter()
            request = await original(reader, **kwargs)
            end = perf_counter()
            if request is None:
                return None
            req = request.headers.get("x-bench-req")
            # No reset: the rest of this request runs in the same task.
            _CONTEXT.set((None, (req,) if req else ()))
            if req:
                sent = request.header_float("x-bench-sent")
                if sent is not None:
                    start = min(max(start, sent), end)
                rec.record("http.read", start, end, rec.next_id(), None,
                           (req,))
            return request
        return wrapper

    def handling(span_id, requests, *args):
        for req in requests:
            rec.handling[req] = span_id

        def leave():
            for req in requests:
                rec.handling.pop(req, None)
        return leave

    def waiting(span_id, requests, batcher, kind, payload, *args):
        rec.waiting[id(payload)] = (span_id, requests)
        return lambda: rec.waiting.pop(id(payload), None)

    def solve(original):
        @functools.wraps(original)
        def wrapper(self, requests):
            waiters = [rec.waiting.get(id(payload)) for _, payload in requests]
            linked = tuple(req for waiter in waiters if waiter
                           for req in waiter[1])
            span_id = rec.next_id()
            before = (self.collapsed, self.xpool.hits, self.xpool.misses)
            token = _CONTEXT.set((span_id, linked))
            start = perf_counter()
            try:
                return original(self, requests)
            finally:
                end = perf_counter()
                _CONTEXT.reset(token)
                for waiter in filter(None, waiters):
                    rec.record("solve", start, end, span_id, waiter[0],
                               waiter[1])
                rec.count("batch_size", len(requests), linked)
                after = (self.collapsed, self.xpool.hits, self.xpool.misses)
                for name, now, then in zip(
                        ("collapsed", "xpool.hit", "xpool.miss"), after,
                        before):
                    rec.count(name, now - then, linked)
        return wrapper

    def timed_kernels(name: str, methods: tuple[str, ...]) -> type:
        return type(ProfileBatch.__name__, (ProfileBatch,), {
            method: rec.timed(name, getattr(ProfileBatch, method))
            for method in methods})

    def count_admission(decision, requests):
        if not decision:
            rec.count("shed", 1, requests)

    def count_cache_hit(body, requests):
        rec.count("respcache.hit", body is not None, requests)

    def count_shards(report, requests):
        for item in report.items:
            if not item.cached:
                rec.count("shards", item.shards, requests)

    def timed(name, after=None):
        return lambda original: rec.timed(name, original, after)

    _patch(app, "read_request", read_request)
    _patch(app.ReproService, "_respond", lambda original: rec.timed_async(
        "handler", original, handling))
    _patch(app, "render_response", timed("encode"))
    _patch(app, "_json_response", timed("encode"))
    _patch(app.ReproService, "_json_body", timed("validate"))
    _patch(app, "parse_eval_payload", timed("validate"))
    _patch(AdmissionController, "admit", timed("admit", count_admission))
    _patch(AdmissionController, "release", timed("admit"))
    _patch(ResponseCache, "key", timed("respcache"))
    _patch(ResponseCache, "get", timed("respcache", count_cache_hit))
    _patch(ResponseCache, "put", timed("respcache"))
    _patch(coalescer.MicroBatcher, "submit", lambda original: rec.timed_async(
        "coalescer.wait", original, waiting))
    _patch(coalescer.BatchSolver, "solve", solve)
    _patch(coalescer, "lp_allocation_many", timed("solve.lp"))
    _patch(coalescer, "fifo_allocation", timed("solve.fifo"))
    _patch(coalescer, "x_measure", timed("solve.x"))
    coalescer.ProfileBatch = timed_kernels("solve.x", ("x",))
    _patch(coalescer, "allocation_to_dict", timed("encode"))
    _patch(RunStore, "record_run", timed("store"))
    _patch(RunStore, "add_spans", timed("stream.store"))
    _patch(repro.stream, "event_from_dict", timed("stream.parse"))
    _patch(WindowManager, "add", timed("stream.window"))
    _patch(Calibrator, "observe_window", timed("stream.calibrate"))
    _patch(engine, "fifo_work_fractions", timed("stream.evaluate"))
    engine.ProfileBatch = timed_kernels("stream.evaluate",
                                        ("x", "work_rates", "hecr"))
    _patch(repro.batch, "run_batch", timed("batch.run", count_shards))
    _patch(ResultCache, "get", timed("resultcache.get"))
    _patch(ResultCache, "put", timed("resultcache.put"))
    _patch(repro.io, "result_to_dict", timed("encode.result"))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: traced_serve.py --spans PATH serve [serve options]",
              file=sys.stderr)
        return 2
    path, cli_args = argv[1], argv[2:]
    rec = Recorder()
    install(rec)
    from repro.cli import main as cli_main

    code = cli_main(cli_args)
    rec.dump(path)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

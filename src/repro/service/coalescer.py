"""Micro-batched evaluation: the serving layer's heart.

Concurrent in-flight evaluation requests (``/v1/x``, ``/v1/work``,
``/v1/hecr``, ``/v1/allocate``) are collected into one batch (at most
``max_batch``) and solved **in one shot**.  A batch is the first queued
request plus everything already queued behind it, dispatched at once:
a lone request never waits for company, and under load the requests
that queue while one batch solves become the next.  Within a batch:

* identical requests are *collapsed* — one solve fans its answer out to
  every waiter, which is what turns a thundering herd on a hot query
  into a single evaluation;
* requests needing ``X(P)`` share one evaluation per distinct
  ``(profile, params)`` in the batch: the solver first *primes* its
  float pool by stacking every pool-missing profile of a common
  ``(params, n)`` into one
  :class:`~repro.core.batch_kernels.ProfileBatch` and reducing eq. (1)
  columnar, one vectorised pass per micro-batch — each primed float is
  bit-identical to a fresh :func:`~repro.core.measure.x_measure` of its
  row;
* LP allocation requests against the same cluster are grouped and
  solved via :func:`~repro.protocols.general.lp_allocation_many`,
  which is bit-identical to per-pair :func:`lp_allocation` solves and
  amortises the constraint-assembly cost PR 4 vectorised.

**Bit-identity is the contract**: for any batch, every response equals
the response the same request would have produced in a batch of one.
All three mechanisms above only ever *reuse* a float that the
single-request path would have computed through the same code path
(the library's ``x=`` passthroughs are documented bit-identical), so
the property holds by construction — and
``tests/service/test_coalescer.py`` verifies it over randomised
concurrent request mixes.

:func:`solve_batch` is a synchronous pure function so the equivalence
property can be tested without a running server;
:class:`MicroBatcher` wraps it in the asyncio queue + flush policy.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from typing import Any, Sequence

import numpy as np

from repro.core.batch_kernels import ProfileBatch
from repro.core.hecr import hecr
from repro.core.measure import work_production, work_rate, x_measure
from repro.core.params import ModelParams
from repro.core.profile import Profile
from repro.errors import InvalidParameterError
from repro.io import allocation_to_dict
from repro.protocols.fifo import fifo_allocation
from repro.protocols.general import lp_allocation_many

__all__ = ["EVAL_KINDS", "FLUSH_REASONS", "BatchSolver", "MicroBatcher",
           "request_key", "solve_batch"]

EVAL_KINDS = ("x", "work", "hecr", "allocate")

#: svc_batch_size histogram buckets: powers of two up to the default cap.
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Why a micro-batch left the queue (``svc:batch`` ``flush`` attribute,
#: ``svc_batch_flush_total{reason}``): ``alone`` — a batch of one, the
#: queue empty behind it; ``drained`` — several, the queue emptied;
#: ``full`` — ``max_batch`` reached with more possibly still queued.
FLUSH_REASONS = ("alone", "drained", "full")


def request_key(kind: str, payload: dict[str, Any]) -> tuple:
    """A hashable identity for one validated evaluation request.

    Two requests with equal keys are *the same question* and may share
    one solve (request collapsing).  The key covers every field that
    reaches the solver.
    """
    params = payload["params"]
    base = (kind, payload["profile"], params.tau, params.pi, params.delta)
    if kind == "work":
        return base + (payload.get("lifespan"),)
    if kind == "allocate":
        return base + (payload["lifespan"], payload["protocol"],
                       payload.get("startup_order"),
                       payload.get("finishing_order"),
                       payload.get("enforce_separation", True),
                       payload.get("scheme"),
                       payload.get("scheme_margin"))
    return base


class _XPool:
    """LRU pool of X-measure floats keyed by (profile, params).

    Every pooled float is bit-identical to a fresh ``x_measure`` of the
    same profile (whether it arrived through the scalar :meth:`x` path
    or a :meth:`seed` from a shared :class:`ProfileBatch` pass), so
    serving repeated profiles from the pool cannot move any response
    float — it only skips re-reducing eq. (1) for hot profiles.

    Counting contract: each :meth:`x` lookup records exactly one miss
    (the profile had to be evaluated) or one hit (an earlier request
    already paid for it).  A :meth:`seed` marks its entry *fresh*: the
    first :meth:`x` that consumes it records the miss the batch pass
    performed on its behalf, so the counters read the same whether a
    profile was evaluated columnar or scalar.
    """

    def __init__(self, max_entries: int = 256) -> None:
        self.max_entries = max(1, int(max_entries))
        self._entries: OrderedDict[tuple, float] = OrderedDict()
        self._fresh: set[tuple] = set()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(profile: tuple[float, ...], params: ModelParams) -> tuple:
        return (profile, params.tau, params.pi, params.delta)

    def _store(self, key: tuple, x: float) -> None:
        self._entries[key] = x
        while len(self._entries) > self.max_entries:
            evicted, _ = self._entries.popitem(last=False)
            self._fresh.discard(evicted)

    def peek(self, profile: tuple[float, ...],
             params: ModelParams) -> float | None:
        """Non-counting lookup — used to decide what a batch pass must prime."""
        return self._entries.get(self.key(profile, params))

    def seed(self, profile: tuple[float, ...], params: ModelParams,
             x: float) -> None:
        """Install a batch-computed X; the first consumer records the miss."""
        key = self.key(profile, params)
        if key not in self._entries:
            self._fresh.add(key)
        self._store(key, x)

    def x(self, profile: tuple[float, ...], params: ModelParams) -> float:
        key = self.key(profile, params)
        x = self._entries.get(key)
        if x is None:
            self.misses += 1
            x = x_measure(profile, params)
            self._store(key, x)
        elif key in self._fresh:
            self._fresh.discard(key)
            self.misses += 1
            self._entries.move_to_end(key)
        else:
            self.hits += 1
            self._entries.move_to_end(key)
        return x


class BatchSolver:
    """Stateful solver: an :class:`_XPool` plus the batch algorithm."""

    def __init__(self, xpool_entries: int = 256) -> None:
        self.xpool = _XPool(xpool_entries)
        #: Requests answered by another identical request's solve.
        self.collapsed = 0
        #: LP solves that rode a shared lp_allocation_many call.
        self.lp_grouped = 0
        #: Distinct profiles whose X came from a shared ProfileBatch pass.
        self.batch_evaluated = 0

    # -- columnar X priming -------------------------------------------
    def _prime_x_family(self, unique: "OrderedDict[tuple, dict]") -> None:
        """Evaluate the batch's pool-missing profiles columnar, in one pass.

        Every x-family request (``x``/``work``/``hecr``) whose profile is
        not already pooled is stacked with its same-``(params, n)``
        companions into one :class:`ProfileBatch`, whose per-row X is
        bit-identical to ``x_measure`` of the row — so seeding the pool
        from it cannot move any response float.  If a group's
        construction or reduction fails (e.g. one profile is
        non-positive), the group is simply *not* seeded: each member
        then falls back to the scalar pool path inside
        :meth:`_eval_x_family`'s per-request try block, which raises the
        exact per-request error a lone solve would have raised —
        priming never weakens error isolation.
        """
        groups: OrderedDict[tuple, OrderedDict[tuple, dict]] = OrderedDict()
        for key, payload in unique.items():
            if key[0] == "allocate":
                continue
            profile = payload["profile"]
            params = payload["params"]
            if self.xpool.peek(profile, params) is not None:
                continue
            gkey = (params.tau, params.pi, params.delta, len(profile))
            groups.setdefault(gkey, OrderedDict()).setdefault(profile, payload)
        for members in groups.values():
            profiles = list(members)
            params = next(iter(members.values()))["params"]
            try:
                xs = ProfileBatch(
                    np.asarray(profiles, dtype=float), copy=False).x(params)
            except Exception:
                continue  # scalar fallback per request; see docstring
            self.batch_evaluated += len(profiles)
            for profile, x in zip(profiles, xs):
                self.xpool.seed(profile, params, float(x))

    # -- per-kind evaluation ------------------------------------------
    def _eval_x_family(self, kind: str, payload: dict[str, Any]) -> dict:
        profile = payload["profile"]
        params = payload["params"]
        x = self.xpool.x(profile, params)
        if kind == "x":
            return {"x": x, "n": len(profile)}
        if kind == "hecr":
            return {"x": x, "hecr": hecr(Profile(profile), params, x=x),
                    "n": len(profile)}
        # kind == "work"
        rate = work_rate(profile, params, x=x)
        out = {"x": x, "work_rate": rate}
        lifespan = payload.get("lifespan")
        if lifespan is not None:
            out["lifespan"] = lifespan
            out["work"] = work_production(profile, params, lifespan, x=x)
        return out

    @staticmethod
    def _allocation_response(allocation) -> dict:
        return {"allocation": allocation_to_dict(allocation),
                "total_work": float(allocation.w.sum())}

    @staticmethod
    def _coded_response(payload: dict[str, Any]) -> dict:
        """Solve an allocate request carrying a redundancy scheme.

        Returns the redundant plan plus the coded structure: useful
        work, expected waste fraction, per-quantum membership.
        """
        # Imported here, not at module scope: the coded package is only
        # needed for scheme-carrying requests, and the lazy import keeps
        # the hot x/work/allocate path's import graph unchanged.
        from repro.coded import scheme_from_spec

        scheme = scheme_from_spec(payload["scheme"])
        plan = scheme.plan(Profile(payload["profile"]), payload["params"],
                           payload["lifespan"],
                           margin=payload["scheme_margin"])
        return {"allocation": allocation_to_dict(plan.allocation),
                "total_work": float(plan.allocation.w.sum()),
                "coded": plan.as_dict()}

    def _solve_lp_groups(self, unique: "OrderedDict[tuple, dict]",
                         outcomes: dict[tuple, tuple[bool, Any]]) -> None:
        """Group LP allocate requests per cluster and solve each group.

        ``lp_allocation_many`` documents bit-identity with per-pair
        ``lp_allocation`` calls, so grouping is free of float drift.  A
        group failure (solver error) fails every request in the group
        with the same exception a lone solve would have raised.
        """
        groups: OrderedDict[tuple, list[tuple]] = OrderedDict()
        for key, payload in unique.items():
            if key[0] != "allocate" or payload["protocol"] != "lp":
                continue
            params = payload["params"]
            gkey = (payload["profile"], params.tau, params.pi, params.delta,
                    payload["lifespan"],
                    payload.get("enforce_separation", True))
            groups.setdefault(gkey, []).append(key)
        for gkey, keys in groups.items():
            payloads = [unique[k] for k in keys]
            first = payloads[0]
            pairs = [(p["startup_order"], p["finishing_order"])
                     for p in payloads]
            try:
                allocations = lp_allocation_many(
                    Profile(first["profile"]), first["params"],
                    first["lifespan"], pairs,
                    enforce_separation=first.get("enforce_separation", True))
            except Exception as exc:
                for key in keys:
                    outcomes[key] = (False, exc)
                continue
            if len(keys) > 1:
                self.lp_grouped += len(keys)
            for key, allocation in zip(keys, allocations):
                outcomes[key] = (True, self._allocation_response(allocation))

    # -- the batch algorithm ------------------------------------------
    def solve(self, requests: Sequence[tuple[str, dict[str, Any]]]
              ) -> list[tuple[bool, Any]]:
        """Solve a batch; returns ``(ok, value-or-exception)`` per input.

        Input order is preserved.  Failures are isolated per *unique*
        request: one bad request cannot poison the answers of the
        others (except LP group-mates sharing its exact cluster, which
        would have failed identically on their own).
        """
        unique: OrderedDict[tuple, dict] = OrderedDict()
        keys: list[tuple] = []
        for kind, payload in requests:
            key = request_key(kind, payload)
            keys.append(key)
            if key not in unique:
                unique[key] = payload
        self.collapsed += len(requests) - len(unique)

        outcomes: dict[tuple, tuple[bool, Any]] = {}
        self._prime_x_family(unique)
        self._solve_lp_groups(unique, outcomes)
        for key, payload in unique.items():
            if key in outcomes:
                continue
            kind = key[0]
            try:
                if kind == "allocate" and payload.get("scheme") is not None:
                    outcomes[key] = (True, self._coded_response(payload))
                elif kind == "allocate":
                    allocation = fifo_allocation(
                        Profile(payload["profile"]), payload["params"],
                        payload["lifespan"],
                        startup_order=payload.get("startup_order"))
                    outcomes[key] = (True, self._allocation_response(allocation))
                else:
                    outcomes[key] = (True, self._eval_x_family(kind, payload))
            except Exception as exc:
                outcomes[key] = (False, exc)
        return [outcomes[key] for key in keys]


def solve_batch(requests: Sequence[tuple[str, dict[str, Any]]]
                ) -> list[tuple[bool, Any]]:
    """One-shot :class:`BatchSolver` run (fresh pool) — test entry point."""
    return BatchSolver().solve(requests)


class MicroBatcher:
    """The asyncio front of :class:`BatchSolver`: queue, flush, fan-out.

    ``submit()`` parks a request on the queue and awaits its future.
    The drain task takes the first request and everything already
    queued behind it (up to ``max_batch``) and solves that batch at
    once, synchronously on the loop thread, then resolves every future.
    It never waits for company: requests that arrive while a batch
    solves queue up and form the next batch, so batches grow with load
    on their own.  ``max_batch=1`` gives a strictly unbatched server
    (the benchmark's baseline).
    """

    def __init__(self, *, max_batch: int = 64, registry: Any = None,
                 xpool_entries: int = 256, tracer: Any = None) -> None:
        if max_batch < 1:
            raise InvalidParameterError(
                f"max_batch must be >= 1, got {max_batch!r}")
        self.max_batch = int(max_batch)
        self.solver = BatchSolver(xpool_entries)
        self._registry = registry
        self._tracer = tracer
        self._queue: asyncio.Queue = asyncio.Queue()
        self._task: asyncio.Task | None = None
        self.batches = 0
        self.requests = 0

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(
                self._drain_loop(), name="repro-service-batcher")

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        while not self._queue.empty():
            # Entry shape is (kind, payload, future[, trace_parent]);
            # index rather than unpack so a legacy 3-tuple still drains.
            future = self._queue.get_nowait()[2]
            if not future.done():
                future.set_exception(
                    ConnectionError("service stopped before the request "
                                    "was solved"))

    # -- submission ----------------------------------------------------
    async def submit(self, kind: str, payload: dict[str, Any],
                     trace_parent: str | None = None) -> Any:
        """Queue one evaluation and await its (possibly shared) answer.

        ``trace_parent`` is the submitting request's span id; the drain
        loop parents its per-batch ``svc:batch`` span onto the first
        waiter's id and lists every waiter, so a request's trace leads
        to the batch that actually solved it.
        """
        if kind not in EVAL_KINDS:
            raise InvalidParameterError(
                f"unknown evaluation kind {kind!r}; expected one of {EVAL_KINDS}")
        if self._task is None:
            raise InvalidParameterError(
                "MicroBatcher.submit() before start()")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait((kind, payload, future, trace_parent))
        return await future

    # -- the drain loop ------------------------------------------------
    async def _gather(self) -> tuple[list[tuple[str, dict, asyncio.Future,
                                                str | None]], str]:
        """Block for the first request, then take everything queued.

        Returns the batch and its flush reason (see
        :data:`FLUSH_REASONS`).
        """
        batch = [await self._queue.get()]
        while len(batch) < self.max_batch and not self._queue.empty():
            batch.append(self._queue.get_nowait())
        if len(batch) >= self.max_batch:
            return batch, "full"
        return batch, "alone" if len(batch) == 1 else "drained"

    async def _drain_loop(self) -> None:
        while True:
            batch, flush = await self._gather()
            self.batches += 1
            self.requests += len(batch)
            if self._registry is not None:
                self._registry.histogram(
                    "svc_batch_size",
                    "evaluation requests coalesced per micro-batch",
                    buckets=BATCH_SIZE_BUCKETS).observe(float(len(batch)))
                self._registry.counter(
                    "svc_batch_flush_total",
                    "micro-batches dispatched, by why they left the queue"
                ).inc(reason=flush)
            collapsed_before = self.solver.collapsed
            solve_start = time.perf_counter()
            outcomes = self.solver.solve([(k, p) for k, p, _, _ in batch])
            if self._tracer is not None:
                # One pre-timed span per solved batch (record_span, not
                # span(): the drain task must not touch the tracer's
                # thread-local span stack while request spans interleave).
                waiters = [t for _, _, _, t in batch if t is not None]
                self._tracer.record_span(
                    "svc:batch", duration=time.perf_counter() - solve_start,
                    parent_id=waiters[0] if waiters else None,
                    attrs={"size": len(batch),
                           "collapsed": self.solver.collapsed - collapsed_before,
                           "flush": flush, "waiters": waiters})
            for (_, _, future, _), (ok, value) in zip(batch, outcomes):
                if future.done():  # deadline hit while queued: nobody waits
                    continue
                if ok:
                    future.set_result(value)
                else:
                    future.set_exception(value)

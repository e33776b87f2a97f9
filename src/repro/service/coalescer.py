"""Evaluation solving: the serving layer's heart.

Each validated evaluation request (``/v1/x``, ``/v1/work``,
``/v1/hecr``, ``/v1/allocate``) is solved **inline** by the handler
that read it, on the event-loop thread, between its response-cache
``get`` and ``put``.  Nothing in that stretch suspends, so no other
request runs between the miss and the store, and the store makes the
answer readable at once (in the cache's probation segment; a second
request promotes it): a concurrent duplicate of a request being solved
is always a response-cache hit.  The response cache is therefore the
one dedup layer in front of the solver (see ``docs/SERVICE.md``).

:class:`BatchSolver` solves a list of requests.  Within one call:

* identical requests are *collapsed* — one solve answers them all;
* requests needing ``X(P)`` share one evaluation per distinct
  ``(profile, params)``, within a call and across calls: the solver
  keeps an LRU pool of :func:`~repro.core.measure.x_measure` floats,
  and a pool miss runs that kernel once;
* requests are identified by :func:`request_key`, which holds SHA-256
  digests of the profile and orders, not their values: the solver's
  collapse table, its X pool and the response cache keep keys of one
  size whatever the cluster's size n;
* an LP allocation is solved by
  ``lp_allocation_many(..., [pair])[0]`` — the call
  :func:`~repro.protocols.general.lp_allocation` itself makes.

**Bit-identity is the contract**: every response equals the response
the same request gets when solved alone, and the direct library
answer.  The mechanisms above only ever *reuse* a float that the
single-request path would have computed through the same code path
(the library's ``x=`` passthroughs are documented bit-identical), so
the property holds by construction — and
``tests/service/test_coalescer.py`` verifies it over randomised request
mixes.

:func:`solve_batch` is a synchronous pure function, so the equivalence
property can be tested without a running server (it is also the
end-to-end benchmark's answer oracle); :class:`MicroBatcher` is the
handlers' entry point.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Sequence

import numpy as np

from repro.core.hecr import hecr
from repro.core.measure import work_production, work_rate, x_measure
from repro.core.params import ModelParams
from repro.core.profile import Profile
from repro.errors import InvalidParameterError
from repro.io import allocation_to_dict
from repro.protocols.fifo import fifo_allocation
from repro.protocols.general import lp_allocation_many

__all__ = ["EVAL_KINDS", "BatchSolver", "MicroBatcher", "digest",
           "request_key", "solve_batch"]

EVAL_KINDS = ("x", "work", "hecr", "allocate")


def digest(values: Any, dtype: type) -> str:
    """The SHA-256 hex digest of ``values`` as a ``dtype`` array.

    A fixed-size identity for a profile (``np.float64``: the ρ-values'
    bytes, so equal doubles and only equal doubles match) or an order
    (``np.int64``).
    """
    return hashlib.sha256(np.ascontiguousarray(values, dtype=dtype)
                          ).hexdigest()


def _order_digest(order: Any) -> str | tuple | None:
    """A hand-built order's identity: its digest when every element is
    an int; otherwise the order itself, which no checked order equals
    (the library refuses it when solving)."""
    if order is None:
        return None
    order = tuple(order)
    if set(map(type, order)) <= {int}:
        return digest(order, np.int64)
    return order


def request_key(kind: str, payload: dict[str, Any]) -> tuple:
    """A hashable, fixed-size identity for one validated request.

    Two requests with equal keys are *the same question* and may share
    one solve (request collapsing).  The key covers every field that
    reaches the solver.  The profile and orders enter as the digests
    :func:`~repro.service.app.parse_eval_payload` stored under
    ``"digests"``; a payload built by hand gets the same digests from
    its ``"profile"`` and orders.
    """
    params = payload["params"]
    digests = payload.get("digests")
    if digests is None:
        digests = (digest(payload["profile"], np.float64),
                   _order_digest(payload.get("startup_order")),
                   _order_digest(payload.get("finishing_order")))
    profile, startup, finishing = digests
    base = (kind, profile, params.tau, params.pi, params.delta)
    if kind == "work":
        return base + (payload.get("lifespan"),)
    if kind == "allocate":
        return base + (payload["lifespan"], payload["protocol"],
                       startup, finishing,
                       payload.get("enforce_separation", True),
                       payload.get("scheme"),
                       payload.get("scheme_margin"))
    return base


class _XPool:
    """LRU pool of X-measure floats keyed by (profile digest, params).

    A miss runs ``x_measure`` and pools its float, so serving repeated
    profiles from the pool cannot move any response float — it only
    skips re-reducing eq. (1) for hot profiles.  Each :meth:`x` lookup
    records exactly one hit or one miss.
    """

    def __init__(self, max_entries: int = 256) -> None:
        self.max_entries = max(1, int(max_entries))
        self._entries: OrderedDict[tuple, float] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def x(self, profile: str, params: ModelParams,
          cluster: Profile) -> float:
        """``X`` of ``cluster``, pooled under its ρ-values' digest."""
        key = (profile, params.tau, params.pi, params.delta)
        x = self._entries.get(key)
        if x is None:
            self.misses += 1
            x = x_measure(cluster, params)
            self._entries[key] = x
            if len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        else:
            self.hits += 1
            self._entries.move_to_end(key)
        return x


class BatchSolver:
    """Stateful solver: an :class:`_XPool` plus per-request evaluation."""

    def __init__(self, xpool_entries: int = 256) -> None:
        self.xpool = _XPool(xpool_entries)
        #: Requests answered by another identical request's solve.
        self.collapsed = 0

    # -- per-kind evaluation ------------------------------------------
    def _eval_x_family(self, kind: str, payload: dict[str, Any],
                       cluster: Profile, profile_digest: str) -> dict:
        params = payload["params"]
        x = self.xpool.x(profile_digest, params, cluster)
        if kind == "x":
            return {"x": x, "n": cluster.n}
        if kind == "hecr":
            return {"x": x, "hecr": hecr(cluster, params, x=x),
                    "n": cluster.n}
        # kind == "work"
        rate = work_rate(cluster, params, x=x)
        out = {"x": x, "work_rate": rate}
        lifespan = payload.get("lifespan")
        if lifespan is not None:
            out["lifespan"] = lifespan
            out["work"] = work_production(cluster, params, lifespan, x=x)
        return out

    @staticmethod
    def _allocation_response(allocation) -> dict:
        return {"allocation": allocation_to_dict(allocation),
                "total_work": float(allocation.w.sum())}

    @staticmethod
    def _coded_response(payload: dict[str, Any], cluster: Profile) -> dict:
        """Solve an allocate request carrying a redundancy scheme.

        Returns the redundant plan plus the coded structure: useful
        work, expected waste fraction, per-quantum membership.
        """
        # Imported here, not at module scope: the coded package is only
        # needed for scheme-carrying requests, and the lazy import keeps
        # the hot x/work/allocate path's import graph unchanged.
        from repro.coded import scheme_from_spec

        scheme = scheme_from_spec(payload["scheme"])
        plan = scheme.plan(cluster, payload["params"],
                           payload["lifespan"],
                           margin=payload["scheme_margin"])
        return {"allocation": allocation_to_dict(plan.allocation),
                "total_work": float(plan.allocation.w.sum()),
                "coded": plan.as_dict()}

    def _solve_one(self, key: tuple, payload: dict[str, Any]) -> dict:
        # A payload from parse_eval_payload carries the Profile it built
        # and orders it checked (and their digests); any other payload
        # is checked here, by the library.
        kind, profile_digest = key[0], key[1]
        checked = "digests" in payload
        cluster = payload["profile"]
        if not checked:
            cluster = Profile(cluster)
        if kind != "allocate":
            return self._eval_x_family(kind, payload, cluster,
                                       profile_digest)
        if payload.get("scheme") is not None:
            return self._coded_response(payload, cluster)
        if payload["protocol"] == "lp":
            (allocation,) = lp_allocation_many(
                cluster, payload["params"], payload["lifespan"],
                [(payload["startup_order"], payload["finishing_order"])],
                enforce_separation=payload.get("enforce_separation", True),
                orders_checked=checked)
        else:
            allocation = fifo_allocation(
                cluster, payload["params"], payload["lifespan"],
                startup_order=payload.get("startup_order"),
                orders_checked=checked)
        return self._allocation_response(allocation)

    def solve(self, requests: Sequence[tuple[str, dict[str, Any]]]
              ) -> list[tuple[bool, Any]]:
        """Solve requests; returns ``(ok, value-or-exception)`` per input.

        Input order is preserved.  Failures are isolated per *unique*
        request: one bad request cannot poison the answers of the
        others.
        """
        unique: dict[Any, dict] = {}
        outcomes: dict[Any, tuple[bool, Any]] = {}
        keys: list[Any] = []
        for kind, payload in requests:
            try:
                key = request_key(kind, payload)
            except Exception as exc:
                # A hand-built value numpy cannot read fails alone.
                key = object()
                outcomes[key] = (False, exc)
            else:
                unique.setdefault(key, payload)
            keys.append(key)
        self.collapsed += len(keys) - len(unique) - len(outcomes)

        for key, payload in unique.items():
            try:
                outcomes[key] = (True, self._solve_one(key, payload))
            except Exception as exc:
                outcomes[key] = (False, exc)
        return [outcomes[key] for key in keys]


def solve_batch(requests: Sequence[tuple[str, dict[str, Any]]]
                ) -> list[tuple[bool, Any]]:
    """One-shot :class:`BatchSolver` run (fresh pool) — test entry point."""
    return BatchSolver().solve(requests)


class MicroBatcher:
    """The handlers' entry to :class:`BatchSolver`: one inline solve.

    The class keeps its name, and :meth:`submit` stays a coroutine,
    because the end-to-end benchmark's traced server wraps
    ``MicroBatcher.submit`` and ``BatchSolver.solve`` by name to time
    its ``coalescer.wait`` and ``solve`` layers.  It no longer queues or
    batches: ``submit`` solves at once and never suspends, which is
    what lets the response cache act as the single-flight layer.
    """

    def __init__(self) -> None:
        self.solver = BatchSolver()

    async def submit(self, kind: str, payload: dict[str, Any]) -> Any:
        """Solve one evaluation; returns its answer or raises its error."""
        if kind not in EVAL_KINDS:
            raise InvalidParameterError(
                f"unknown evaluation kind {kind!r}; expected one of {EVAL_KINDS}")
        ((ok, value),) = self.solver.solve([(kind, payload)])
        if not ok:
            raise value
        return value

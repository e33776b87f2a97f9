"""Evaluation solving: the serving layer's heart.

Each validated evaluation request (``/v1/x``, ``/v1/work``,
``/v1/hecr``, ``/v1/allocate``) is solved **inline** by the handler
that read it, on the event-loop thread, between its response-cache
``get`` and ``put``.  Nothing in that stretch suspends, so no other
request runs between the miss and the store: a concurrent duplicate of
a request being solved is always a response-cache hit.  The response
cache is therefore the one dedup layer in front of the solver (see
``docs/SERVICE.md``).

:class:`BatchSolver` solves a list of requests.  Within one call:

* identical requests are *collapsed* — one solve answers them all;
* requests needing ``X(P)`` share one evaluation per distinct
  ``(profile, params)``, within a call and across calls: the solver
  keeps an LRU pool of :func:`~repro.core.measure.x_measure` floats,
  and a pool miss runs that kernel once;
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

from collections import OrderedDict
from typing import Any, Sequence

from repro.core.hecr import hecr
from repro.core.measure import work_production, work_rate, x_measure
from repro.core.params import ModelParams
from repro.core.profile import Profile
from repro.errors import InvalidParameterError
from repro.io import allocation_to_dict
from repro.protocols.fifo import fifo_allocation
from repro.protocols.general import lp_allocation_many

__all__ = ["EVAL_KINDS", "BatchSolver", "MicroBatcher", "request_key",
           "solve_batch"]

EVAL_KINDS = ("x", "work", "hecr", "allocate")


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

    def x(self, profile: tuple[float, ...], params: ModelParams) -> float:
        key = (profile, params.tau, params.pi, params.delta)
        x = self._entries.get(key)
        if x is None:
            self.misses += 1
            x = x_measure(profile, params)
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

    def _solve_one(self, kind: str, payload: dict[str, Any]) -> dict:
        if kind != "allocate":
            return self._eval_x_family(kind, payload)
        if payload.get("scheme") is not None:
            return self._coded_response(payload)
        profile = Profile(payload["profile"])
        if payload["protocol"] == "lp":
            (allocation,) = lp_allocation_many(
                profile, payload["params"], payload["lifespan"],
                [(payload["startup_order"], payload["finishing_order"])],
                enforce_separation=payload.get("enforce_separation", True))
        else:
            allocation = fifo_allocation(
                profile, payload["params"], payload["lifespan"],
                startup_order=payload.get("startup_order"))
        return self._allocation_response(allocation)

    def solve(self, requests: Sequence[tuple[str, dict[str, Any]]]
              ) -> list[tuple[bool, Any]]:
        """Solve requests; returns ``(ok, value-or-exception)`` per input.

        Input order is preserved.  Failures are isolated per *unique*
        request: one bad request cannot poison the answers of the
        others.
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
        for key, payload in unique.items():
            try:
                outcomes[key] = (True, self._solve_one(key[0], payload))
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

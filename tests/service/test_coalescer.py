"""The micro-batching coalescer, above all its bit-identity contract.

The serving layer's headline guarantee: for any batch of concurrent
evaluation requests, every response is **bit-identical** to the response
the same request would have produced in a batch of one (and to a direct
library call).  The property test below drives randomised request mixes
— duplicate-heavy so request collapsing, X-sharing and LP grouping all
actually engage — and compares float-for-float with ``==`` (bit
equality for non-NaN floats).
"""

import asyncio
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hecr import hecr
from repro.core.measure import work_production, work_rate, x_measure
from repro.core.params import PAPER_TABLE1, ModelParams
from repro.core.profile import Profile
from repro.errors import InvalidParameterError
from repro.io import allocation_to_dict
from repro.obs.metrics import MetricsRegistry
from repro.protocols.fifo import fifo_allocation
from repro.protocols.general import lp_allocation
from repro.service.coalescer import (FLUSH_REASONS, BatchSolver,
                                     MicroBatcher, request_key, solve_batch)

# A deliberately small pool: collisions are the point.
_PROFILES = ((1.0, 0.5, 0.25), (0.9, 0.9, 0.1), (1.0, 0.75),
             (0.8, 0.6, 0.4, 0.2))
_PARAMS = (PAPER_TABLE1, ModelParams(tau=0.5, pi=1.0, delta=0.5))
_LIFESPANS = (60.0, 150.0)


def _orders(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(range(n)), tuple(reversed(range(n)))


@st.composite
def eval_requests(draw):
    kind = draw(st.sampled_from(("x", "work", "hecr", "allocate")))
    profile = draw(st.sampled_from(_PROFILES))
    params = draw(st.sampled_from(_PARAMS))
    payload = {"profile": profile, "params": params}
    if kind == "work":
        payload["lifespan"] = draw(st.sampled_from(_LIFESPANS + (None,)))
    elif kind == "allocate":
        payload["lifespan"] = draw(st.sampled_from(_LIFESPANS))
        natural, reverse = _orders(len(profile))
        if draw(st.booleans()):
            payload["protocol"] = "lp"
            payload["startup_order"] = draw(st.sampled_from((natural, reverse)))
            payload["finishing_order"] = draw(
                st.sampled_from((natural, reverse)))
            payload["enforce_separation"] = True
        else:
            payload["protocol"] = "fifo"
            payload["startup_order"] = draw(
                st.sampled_from((None, natural, reverse)))
    return (kind, payload)


def _expected(kind, payload):
    """What the plain library, called directly, answers."""
    profile = Profile(payload["profile"])
    params = payload["params"]
    if kind == "x":
        return {"x": x_measure(profile, params), "n": len(profile)}
    if kind == "hecr":
        return {"x": x_measure(profile, params),
                "hecr": hecr(profile, params), "n": len(profile)}
    if kind == "work":
        out = {"x": x_measure(profile, params),
               "work_rate": work_rate(profile, params)}
        if payload.get("lifespan") is not None:
            out["lifespan"] = payload["lifespan"]
            out["work"] = work_production(profile, params,
                                          payload["lifespan"])
        return out
    if payload["protocol"] == "lp":
        allocation = lp_allocation(profile, params, payload["lifespan"],
                                   payload["startup_order"],
                                   payload["finishing_order"])
    else:
        allocation = fifo_allocation(profile, params, payload["lifespan"],
                                     startup_order=payload["startup_order"])
    return {"allocation": allocation_to_dict(allocation),
            "total_work": float(allocation.w.sum())}


class TestBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(eval_requests(), min_size=1, max_size=24))
    def test_batched_equals_solo_equals_library(self, requests):
        batched = solve_batch(requests)
        assert len(batched) == len(requests)
        for request, (ok, value) in zip(requests, batched):
            assert ok, value
            solo_ok, solo = solve_batch([request])[0]
            assert solo_ok
            # dict == compares floats bitwise (modulo NaN, never produced
            # here): batch-of-N result is the batch-of-1 result...
            assert value == solo
            # ...which is the direct library answer.
            assert value == _expected(*request)

    def test_lp_grouping_engages_and_stays_identical(self):
        natural, reverse = _orders(3)
        base = {"profile": (1.0, 0.5, 0.25), "params": PAPER_TABLE1,
                "lifespan": 100.0, "protocol": "lp",
                "enforce_separation": True}
        requests = [("allocate", {**base, "startup_order": natural,
                                  "finishing_order": natural}),
                    ("allocate", {**base, "startup_order": reverse,
                                  "finishing_order": natural}),
                    ("allocate", {**base, "startup_order": natural,
                                  "finishing_order": reverse})]
        solver = BatchSolver()
        outcomes = solver.solve(requests)
        assert solver.lp_grouped == 3
        for request, (ok, value) in zip(requests, outcomes):
            assert ok
            assert value == _expected(*request)


class TestBatchSolver:
    def test_collapsing_counts_duplicates(self):
        payload = {"profile": (1.0, 0.5), "params": PAPER_TABLE1}
        solver = BatchSolver()
        outcomes = solver.solve([("x", payload)] * 5)
        assert solver.collapsed == 4
        assert len({id(value) for _, value in outcomes}) == 1  # shared

    def test_x_shared_across_kinds(self):
        payload = {"profile": (1.0, 0.5, 0.25), "params": PAPER_TABLE1}
        solver = BatchSolver()
        solver.solve([("x", payload), ("hecr", payload),
                      ("work", {**payload, "lifespan": 50.0})])
        assert solver.xpool.misses == 1
        assert solver.xpool.hits == 2

    def test_error_isolated_to_the_bad_request(self):
        good = {"profile": (1.0, 0.5), "params": PAPER_TABLE1}
        # not a permutation -> the library raises ProtocolError
        bad = {"profile": (1.0, 0.5), "params": PAPER_TABLE1,
               "lifespan": 50.0, "protocol": "lp",
               "startup_order": (0, 0), "finishing_order": (0, 1),
               "enforce_separation": True}
        outcomes = solve_batch([("x", good), ("allocate", bad), ("x", good)])
        assert outcomes[0][0] and outcomes[2][0]
        assert not outcomes[1][0]
        assert isinstance(outcomes[1][1], Exception)

    def test_request_key_separates_kinds_and_fields(self):
        a = {"profile": (1.0, 0.5), "params": PAPER_TABLE1}
        assert request_key("x", a) != request_key("hecr", a)
        assert (request_key("work", {**a, "lifespan": 5.0})
                != request_key("work", {**a, "lifespan": 6.0}))
        other = {"profile": (1.0, 0.5),
                 "params": ModelParams(tau=0.5, pi=1.0, delta=0.5)}
        assert request_key("x", a) != request_key("x", other)


class TestMicroBatcher:
    def test_concurrent_submits_coalesce_into_one_batch(self):
        async def main():
            batcher = MicroBatcher(max_batch=64)
            batcher.start()
            payload = {"profile": (1.0, 0.5, 0.25), "params": PAPER_TABLE1}
            try:
                results = await asyncio.gather(
                    *(batcher.submit("x", payload) for _ in range(8)))
            finally:
                await batcher.stop()
            return batcher, results
        batcher, results = asyncio.run(main())
        assert batcher.batches == 1
        assert batcher.requests == 8
        assert batcher.solver.collapsed == 7
        assert all(r == results[0] for r in results)

    def test_max_batch_one_disables_coalescing(self):
        async def main():
            batcher = MicroBatcher(max_batch=1)
            batcher.start()
            payload = {"profile": (1.0, 0.5), "params": PAPER_TABLE1}
            try:
                await asyncio.gather(
                    *(batcher.submit("x", payload) for _ in range(4)))
            finally:
                await batcher.stop()
            return batcher
        batcher = asyncio.run(main())
        assert batcher.batches == 4

    def test_error_propagates_as_exception(self):
        async def main():
            batcher = MicroBatcher(max_batch=4)
            batcher.start()
            bad = {"profile": (1.0, 0.5), "params": PAPER_TABLE1,
                   "lifespan": 50.0, "protocol": "lp",
                   "startup_order": (0, 0), "finishing_order": (0, 1),
                   "enforce_separation": True}
            try:
                with pytest.raises(Exception):
                    await batcher.submit("allocate", bad)
            finally:
                await batcher.stop()
        asyncio.run(main())

    def test_stop_fails_queued_requests(self):
        async def main():
            batcher = MicroBatcher(max_batch=64)
            # Never started: queue a request by hand and stop.
            future = asyncio.get_running_loop().create_future()
            batcher._queue.put_nowait(("x", {}, future, None))
            await batcher.stop()
            with pytest.raises(ConnectionError):
                future.result()
        asyncio.run(main())

    def test_unknown_kind_rejected(self):
        async def main():
            batcher = MicroBatcher()
            batcher.start()
            try:
                with pytest.raises(InvalidParameterError):
                    await batcher.submit("nope", {})
            finally:
                await batcher.stop()
        asyncio.run(main())

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            MicroBatcher(max_batch=0)


def _flushes(registry: MetricsRegistry) -> dict[str, float]:
    counter = registry.counter("svc_batch_flush_total", "")
    return {reason: counter.value(reason=reason)
            for reason in FLUSH_REASONS if counter.value(reason=reason)}


def _run_flush(scenario, *, max_batch: int = 64):
    """Run ``scenario(batcher)`` on a started batcher.

    Returns ``(scenario result, seconds taken, batcher, flush counts)``.
    """
    registry = MetricsRegistry()

    async def main():
        batcher = MicroBatcher(max_batch=max_batch, registry=registry)
        batcher.start()
        started = time.perf_counter()
        try:
            result = await scenario(batcher)
        finally:
            elapsed = time.perf_counter() - started
            await batcher.stop()
        return result, elapsed, batcher
    result, elapsed, batcher = asyncio.run(main())
    return result, elapsed, batcher, _flushes(registry)


_P1 = {"profile": (1.0, 0.5, 0.25), "params": PAPER_TABLE1}
_P2 = {"profile": (0.9, 0.9, 0.1), "params": PAPER_TABLE1}


def _solved_alone(requests):
    """Each request's answer from a batch of one."""
    return [solve_batch([request])[0][1] for request in requests]


class TestFlushPolicy:
    """A batch is whatever queues before a loop pass adds nothing."""

    def test_lone_submit_solves_at_once(self):
        async def scenario(batcher):
            return await batcher.submit("x", _P1)
        result, elapsed, batcher, flushes = _run_flush(scenario)
        assert result == {"x": x_measure(_P1["profile"], PAPER_TABLE1),
                          "n": 3}
        assert elapsed < 0.2
        assert flushes == {"alone": 1}

    def test_queued_requests_drain_into_one_batch(self):
        async def scenario(batcher):
            return await asyncio.gather(batcher.submit("x", _P1),
                                        batcher.submit("x", _P2))
        results, _, batcher, flushes = _run_flush(scenario)
        assert (batcher.batches, batcher.requests) == (1, 2)
        assert flushes == {"drained": 1}
        assert results == _solved_alone([("x", _P1), ("x", _P2)])

    def test_request_one_loop_pass_behind_joins_the_batch(self):
        async def scenario(batcher):
            first = asyncio.ensure_future(batcher.submit("x", _P1))
            await asyncio.sleep(0)  # first is queued; the drain wakes next
            second = asyncio.ensure_future(batcher.submit("x", _P2))
            return await asyncio.gather(first, second)
        results, _, batcher, flushes = _run_flush(scenario)
        assert (batcher.batches, batcher.requests) == (1, 2)
        assert flushes == {"drained": 1}
        assert results == _solved_alone([("x", _P1), ("x", _P2)])

    def test_later_request_does_not_hold_the_first(self):
        async def scenario(batcher):
            first = asyncio.ensure_future(batcher.submit("x", _P1))
            await asyncio.sleep(0.05)
            assert first.done()  # solved before its would-be companion
            return await asyncio.gather(first, batcher.submit("x", _P2))
        results, _, batcher, flushes = _run_flush(scenario)
        assert (batcher.batches, batcher.requests) == (2, 2)
        assert flushes == {"alone": 2}
        assert results == _solved_alone([("x", _P1), ("x", _P2)])

    def test_full_batch_leaves_the_rest_queued_for_the_next(self):
        async def scenario(batcher):
            return await asyncio.gather(
                *(batcher.submit("x", _P1) for _ in range(5)))
        _, _, batcher, flushes = _run_flush(scenario, max_batch=3)
        assert (batcher.batches, batcher.requests) == (2, 5)
        assert flushes == {"full": 1, "drained": 1}

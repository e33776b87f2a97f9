"""The evaluation solver, above all its bit-identity contract.

The serving layer's headline guarantee: whatever else the solver has
seen, every response is **bit-identical** to the response the same
request gets when solved alone (and to a direct library call).  The
property test below drives randomised request mixes — duplicate-heavy
so request collapsing and X-sharing actually engage — and compares
float-for-float with ``==`` (bit equality for non-NaN floats).
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hecr import hecr
from repro.core.measure import work_production, work_rate, x_measure
from repro.core.params import PAPER_TABLE1, ModelParams
from repro.core.profile import Profile
from repro.errors import InvalidParameterError
from repro.io import allocation_to_dict
from repro.protocols.fifo import fifo_allocation
from repro.protocols.general import lp_allocation
from repro.service.coalescer import (BatchSolver, MicroBatcher, request_key,
                                     solve_batch)

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
    def test_error_propagates_as_exception(self):
        bad = {"profile": (1.0, 0.5), "params": PAPER_TABLE1,
               "lifespan": 50.0, "protocol": "lp",
               "startup_order": (0, 0), "finishing_order": (0, 1),
               "enforce_separation": True}
        with pytest.raises(Exception):
            asyncio.run(MicroBatcher().submit("allocate", bad))

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParameterError):
            asyncio.run(MicroBatcher().submit("nope", {}))

"""The ``/v1/*`` boundary, fuzzed: evaluations against the library,
stream posts against the session they leave behind.

Valid bodies for ``/v1/x``, ``/v1/work``, ``/v1/hecr`` and
``/v1/allocate`` are mutated field by field — values replaced with
extreme floats, huge integers, strings, nulls, booleans, nested
containers, non-finite literals; fields dropped or added; profile and
order elements replaced, added or removed — and posted to one live
server.  Every answer must be a 2xx whose body equals the library's
answer on the same parsed input, or a 4xx whose ``error`` names its
exception type.  A 5xx never passes.

Stream posts (``/v1/stream/events``) are mutated the same way, event
by event and knob by knob.  Each must be a 2xx that accepted every
event, or a typed 4xx after which ``GET /v1/stream/state`` reads as it
did before the post.

The suite is seeded (``derandomize=True``) with a fixed example budget
per route, so tier-1 runs the same bodies every time.
"""

import http.client
import json
import re
import sys

import orjson
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.coded import scheme_from_spec
from repro.core.hecr import hecr
from repro.core.measure import work_production, work_rate, x_measure
from repro.errors import CLIENT_ERRORS
from repro.io import allocation_to_dict
from repro.obs.metrics import MetricsRegistry
from repro.protocols.fifo import fifo_allocation
from repro.protocols.general import lp_allocation
from repro.service import ServiceConfig, ServiceThread
from repro.service.app import parse_eval_payload

#: A refusal's ``error`` starts with its exception type's name.
TYPED_REASON = re.compile(r"^[A-Z][A-Za-z]*Error: ")

VALID_BODIES = {
    "x": {"profile": [1.0, 0.5, 0.25]},
    "hecr": {"profile": [1.0, 0.5, 0.25],
             "params": {"tau": 0.1, "pi": 0.01, "delta": 1.0}},
    "work": {"profile": [1.0, 0.5, 0.25], "lifespan": 100.0},
    "allocate": {"profile": [1.0, 0.5, 0.25, 0.2], "lifespan": 100.0,
                 "protocol": "lp", "startup_order": [0, 1, 2, 3],
                 "finishing_order": [3, 2, 1, 0],
                 "params": {"tau": 0.5, "pi": 0.1}},
}

#: Fields a mutation may set or drop, per route (plus one no route knows).
FIELDS = {
    "x": ("profile", "params"),
    "hecr": ("profile", "params"),
    "work": ("profile", "params", "lifespan"),
    "allocate": ("profile", "params", "lifespan", "protocol",
                 "startup_order", "finishing_order", "enforce_separation",
                 "scheme", "margin"),
}

EXTREME_FLOATS = (1e308, sys.float_info.max, 5e-324, 1e-300, 1e300, 0.0,
                  -0.0, -1.0, float("inf"), float("nan"), 1e-12, 1e12)

#: The numeric slots of each route's body: a top-level field, a
#: ``params`` field, or a profile element (``"profile"``).
NUMBERS = {
    "x": ("profile", "tau", "pi", "delta"),
    "hecr": ("profile", "tau", "pi", "delta"),
    "work": ("profile", "tau", "pi", "delta", "lifespan"),
    "allocate": ("profile", "tau", "pi", "delta", "lifespan", "margin"),
}

scalars = st.one_of(
    st.sampled_from(EXTREME_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-2**70, max_value=2**70),
    st.integers(min_value=-3, max_value=8),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.sampled_from(("fifo", "lp", "lifo", "replication", "mds")),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(st.sampled_from(("tau", "pi", "delta", "kind", "r",
                                         "k", "n", "shares", "?")),
                        inner, max_size=4)),
    max_leaves=8)


def _set_number(draw, kind, body):
    """Set one numeric slot of ``body`` to an extreme float."""
    slot = draw(st.sampled_from(NUMBERS[kind]))
    value = draw(st.sampled_from(EXTREME_FLOATS))
    if slot == "profile":
        profile = body.get("profile")
        if not isinstance(profile, list) or not profile:
            profile = body["profile"] = [1.0]
        profile[draw(st.integers(0, len(profile) - 1))] = value
    elif slot in ("tau", "pi", "delta"):
        if not isinstance(body.get("params"), dict):
            body["params"] = {}
        body["params"][slot] = value
    else:
        body[slot] = value


def _mutate(draw, kind, body):
    """Set, drop or reshape one field of ``body`` with any JSON value."""
    op = draw(st.sampled_from(("set", "drop", "element", "resize", "param",
                               "scheme")))
    field = draw(st.sampled_from(FIELDS[kind] + ("extra",)))
    target = body.get(field)
    if op == "set":
        body[field] = draw(values)
    elif op == "drop":
        body.pop(field, None)
    elif op == "param":
        if not isinstance(body.get("params"), dict):
            body["params"] = {}
        body["params"][draw(st.sampled_from(("tau", "pi", "delta",
                                             "rho")))] = draw(values)
    elif op == "scheme" and kind == "allocate":
        body["protocol"] = "fifo"
        body.pop("startup_order", None)
        body.pop("finishing_order", None)
        body["scheme"] = draw(st.fixed_dictionaries(
            {"kind": st.sampled_from(("replication", "mds"))},
            optional={"r": st.integers(min_value=0, max_value=5) | values,
                      "k": st.integers(min_value=0, max_value=5),
                      "n": st.integers(min_value=0, max_value=6)}))
    elif op == "element" and isinstance(target, list) and target:
        target[draw(st.integers(0, len(target) - 1))] = draw(values)
    elif op == "resize" and isinstance(target, list):
        if target and draw(st.booleans()):
            target.pop()
        else:
            target.append(draw(values))


@st.composite
def mutated_bodies(draw, kind):
    """A valid body for ``kind`` after one to four mutations: up to two
    extreme numbers, then up to two changes of any other kind."""
    body = json.loads(json.dumps(VALID_BODIES[kind]))
    numbers = draw(st.integers(min_value=0, max_value=2))
    for _ in range(numbers):
        _set_number(draw, kind, body)
    for _ in range(draw(st.integers(min_value=0 if numbers else 1,
                                    max_value=2))):
        _mutate(draw, kind, body)
    return body


def library_answer(kind, payload):
    """The library's answer to a parsed request, as the JSON it encodes."""
    profile, params = payload["profile"], payload["params"]
    if kind == "x":
        answer = {"x": x_measure(profile, params), "n": profile.n}
    elif kind == "hecr":
        answer = {"x": x_measure(profile, params),
                  "hecr": hecr(profile, params), "n": profile.n}
    elif kind == "work":
        answer = {"x": x_measure(profile, params),
                  "work_rate": work_rate(profile, params)}
        if payload["lifespan"] is not None:
            answer["lifespan"] = payload["lifespan"]
            answer["work"] = work_production(profile, params,
                                             payload["lifespan"])
    else:
        lifespan, coded = payload["lifespan"], {}
        if payload.get("scheme") is not None:
            plan = scheme_from_spec(payload["scheme"]).plan(
                profile, params, lifespan, margin=payload["scheme_margin"])
            allocation, coded = plan.allocation, {"coded": plan.as_dict()}
        elif payload["protocol"] == "lp":
            allocation = lp_allocation(
                profile, params, lifespan, payload["startup_order"],
                payload["finishing_order"],
                enforce_separation=payload["enforce_separation"])
        else:
            allocation = fifo_allocation(
                profile, params, lifespan,
                startup_order=payload["startup_order"])
        answer = {"allocation": allocation_to_dict(allocation),
                  "total_work": float(allocation.w.sum()), **coded}
    return json.loads(json.dumps(answer))


@pytest.fixture(scope="module")
def connection(tmp_path_factory):
    cache = tmp_path_factory.mktemp("fuzz") / "cache"
    config = ServiceConfig(port=0, result_cache_dir=str(cache),
                           no_store=True)
    with ServiceThread(config, registry=MetricsRegistry()) as server:
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=30)
        try:
            yield conn
        finally:
            conn.close()


def _post(conn, path, raw):
    conn.request("POST", path, body=raw,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, json.loads(response.read())


@pytest.mark.parametrize("kind", sorted(VALID_BODIES))
def test_valid_body_is_answered_as_the_library_does(connection, kind):
    raw = json.dumps(VALID_BODIES[kind]).encode()
    status, answer = _post(connection, f"/v1/{kind}", raw)
    assert status == 200, answer
    assert answer == library_answer(
        kind, parse_eval_payload(kind, orjson.loads(raw)))


@pytest.mark.parametrize("kind", sorted(VALID_BODIES))
@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_body_is_answered_or_refused_never_failed(connection, kind,
                                                          data):
    body = data.draw(mutated_bodies(kind))
    raw = json.dumps(body).encode()
    status, answer = _post(connection, f"/v1/{kind}", raw)
    assert status < 500, (body, answer)
    if status >= 400:
        assert TYPED_REASON.match(answer["error"]), (body, answer)
        return
    assert 200 <= status < 300, (body, status, answer)
    try:
        expected = library_answer(
            kind, parse_eval_payload(kind, orjson.loads(raw)))
    except CLIENT_ERRORS as exc:
        pytest.fail(f"answered {answer} where the library refuses: {exc!r}")
    assert answer == expected, body


# -- /v1/stream/events ---------------------------------------------------

#: A post that opens a fresh session and closes two windows: every
#: event type, a completion with all four milestones, and a late event.
STREAM_BODY = {
    "reset": True, "window": 10.0,
    "events": [
        {"type": "topology", "time": 0.0,
         "workers": {"0": 1.0, "1": 0.5, "2": 0.25}},
        {"type": "task_completed", "time": 4.0, "worker": 1, "work": 2.0,
         "sent": 0.5, "arrived": 1.0, "completed": 3.0,
         "result_started": 3.5},
        {"type": "worker_joined", "time": 11.0, "worker": 3, "rho": 0.8},
        {"type": "speed_observed", "time": 12.0, "worker": 0, "rho": 1.2},
        {"type": "task_completed", "time": 15.0, "worker": 0, "work": 1.0,
         "sent": 11.0, "arrived": 12.0, "completed": 13.5,
         "result_started": 14.0},
        {"type": "worker_left", "time": 21.0, "worker": 2},
        {"type": "task_completed", "time": 2.0, "worker": 2, "work": 0.5},
    ],
}

#: Top-level knobs and event fields a mutation may set or drop.
STREAM_KNOBS = ("reset", "finish", "window", "forget", "calibrate",
                "what_if", "params", "events", "extra")
EVENT_FIELDS = ("type", "time", "worker", "rho", "work", "sent", "arrived",
                "completed", "result_started", "workers", "extra")

stream_values = st.one_of(
    values, st.sampled_from(("topology", "worker_joined", "worker_left",
                             "speed_observed", "task_completed")))


@st.composite
def mutated_stream_bodies(draw):
    """``STREAM_BODY`` after one to four changes: extreme numbers in
    event fields or knobs, any JSON value in a field, dropped fields,
    and added, removed or replaced events."""
    body = json.loads(json.dumps(STREAM_BODY))
    body["reset"] = draw(st.booleans())
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        events = body.get("events")
        op = draw(st.sampled_from(("number", "field", "drop", "knob",
                                   "event", "resize")))
        if op in ("number", "field", "drop") and isinstance(events, list) \
                and events:
            event = events[draw(st.integers(0, len(events) - 1))]
            if not isinstance(event, dict):
                continue
            field = draw(st.sampled_from(EVENT_FIELDS))
            if op == "number":
                event[field] = draw(st.sampled_from(EXTREME_FLOATS))
            elif op == "field":
                event[field] = draw(stream_values)
            else:
                event.pop(field, None)
        elif op == "knob":
            knob = draw(st.sampled_from(STREAM_KNOBS))
            body[knob] = draw(st.one_of(st.sampled_from(EXTREME_FLOATS),
                                        stream_values))
        elif op == "event" and isinstance(events, list) and events:
            events[draw(st.integers(0, len(events) - 1))] = draw(values)
        elif op == "resize" and isinstance(events, list):
            if events and draw(st.booleans()):
                events.pop(draw(st.integers(0, len(events) - 1)))
            else:
                events.append(json.loads(json.dumps(draw(st.sampled_from(
                    STREAM_BODY["events"])))))
    return body


def _stream_state(conn):
    conn.request("GET", "/v1/stream/state")
    response = conn.getresponse()
    assert response.status == 200
    return json.loads(response.read())


@settings(derandomize=True, max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_stream_post_is_answered_or_refused_unchanged(connection,
                                                               data):
    body = data.draw(mutated_stream_bodies())
    before = _stream_state(connection)
    status, answer = _post(connection, "/v1/stream/events",
                           json.dumps(body).encode())
    assert status < 500, (body, answer)
    if status >= 400:
        assert TYPED_REASON.match(answer["error"]), (body, answer)
        assert _stream_state(connection) == before, body
        return
    assert 200 <= status < 300, (body, status, answer)
    assert answer["accepted"] == len(body.get("events", []))

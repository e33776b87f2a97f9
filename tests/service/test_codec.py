"""The service's JSON codec: what orjson must keep of the stdlib contract.

Request bodies are decoded, and responses encoded, with orjson.  These
tests pin what that must not change: every finite double crosses the
wire unchanged in both directions, a non-finite answer is still a 500
(orjson alone would write ``null``), malformed or non-standard JSON is
still a 400, and integers too large for a double are client errors
whatever decoder produced them.  The response-cache tests pin that the
cache keys on the solver's request identity, not on JSON spelling.
"""

import http.client
import json
import math
import struct

import numpy as np
import orjson
import pytest

import repro.service.coalescer as coalescer
from repro.errors import (InvalidParameterError, InvalidProfileError,
                          StreamEventError)
from repro.obs.metrics import MetricsRegistry
from repro.service import ServiceConfig, ServiceThread
from repro.service.app import ReproService, _json_response, parse_eval_payload
from repro.service.http import Request
from repro.stream import event_from_dict

PROFILE = [1.0, 0.5, 0.25]

#: Doubles whose shortest decimal form takes each exponent spelling.
SPECIAL_DOUBLES = [5e-324, 1e-7, 1e-5, 1e16, 1e22,
                   1.7976931348623157e308, -0.0]


@pytest.fixture()
def server(tmp_path):
    config = ServiceConfig(port=0, no_result_cache=True, no_store=True)
    with ServiceThread(config, registry=MetricsRegistry()) as thread:
        yield thread


def _post(server, path: str, body: bytes) -> tuple[int, bytes]:
    """One raw POST; returns ``(status, body)``."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request("POST", path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _bits(values) -> list[int]:
    """Each float's IEEE-754 bit pattern (tells -0.0 from 0.0)."""
    return [struct.unpack("<q", struct.pack("<d", v))[0] for v in values]


def _doubles() -> list[float]:
    """Finite doubles drawn uniformly over bit patterns, plus specials."""
    raw = np.random.default_rng(22).integers(
        -2**63, 2**63 - 1, size=4000, dtype=np.int64).view(np.float64)
    return [float(v) for v in raw if math.isfinite(v)] + SPECIAL_DOUBLES


class TestFloatRoundTrip:
    def test_service_encoding_parses_back_identically_with_stdlib(self):
        values = _doubles()
        body = _json_response(200, {"v": values}).body
        assert body.endswith(b"\n")
        assert _bits(json.loads(body)["v"]) == _bits(values)

    def test_stdlib_encoding_decodes_identically_in_the_service(self):
        values = _doubles()
        request = Request("POST", "/v1/x",
                          body=json.dumps({"v": values}).encode())
        assert _bits(ReproService._json_body(request)["v"]) == _bits(values)

    def test_table1_exponents_spelled_compactly(self):
        body = _json_response(200, {"tau": 1e-6, "pi": 1e-5}).body
        assert body == b'{"tau":1e-6,"pi":0.00001}\n'


class TestNonFiniteAnswers:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_json_response_refuses_non_finite(self, value):
        for payload in ({"x": value}, {"w": [1.0, value]},
                        {"x": np.float64(value)}):
            with pytest.raises(ValueError):
                _json_response(200, payload)

    def test_json_response_keeps_real_nulls(self):
        body = _json_response(200, {"state": None, "x": 1.5}).body
        assert body == b'{"state":null,"x":1.5}\n'

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_found_wherever_it_sits_next_to_a_null(self, value):
        # A real null elsewhere in the body must not hide the bad float.
        for payload in (
                {"windows": [{"shadow": None, "x": [1.0, {"y": value}]}]},
                {"shadow": None, "w": (1.0, value)},
                {"shadow": None, "x": np.float32(value)},
                {"shadow": None, "w": np.array([[1.0], [value]])}):
            with pytest.raises(ValueError):
                _json_response(200, payload)

    def test_null_bodies_are_orjson_bytes(self):
        payload = {"windows": [{"shadow": None, "x": 2.5, "n": 3,
                                "w": np.array([1.0, 0.5]), "ok": True,
                                "label": "null"}], "state": None}
        assert _json_response(200, payload).body == orjson.dumps(
            payload, option=orjson.OPT_SERIALIZE_NUMPY) + b"\n"

    def test_non_finite_solve_is_500_not_null(self, server, monkeypatch):
        monkeypatch.setattr(coalescer, "x_measure",
                            lambda profile, params: math.nan)
        status, body = _post(server, "/v1/x",
                             json.dumps({"profile": PROFILE}).encode())
        assert status == 500
        assert b"null" not in body and b"x" not in json.loads(body)


class TestInvalidBodies:
    @pytest.mark.parametrize("body", [
        b'{"profile":[1.0,NaN]}',
        b'{"profile":[1.0,Infinity]}',
        b'{"profile":[1.0,-Infinity]}',
        b'{"profile":[1.0,0.5],"note":"\xff\xfe"}',
        b'{"profile":[1.0,0.5],"note":"\\ud800"}',
        b'{"profile":[1.0,0.5],"note":"\\udc00x"}',
    ], ids=["nan", "inf", "-inf", "invalid-utf8", "lone-high-surrogate",
            "lone-low-surrogate"])
    def test_non_standard_json_is_400(self, server, body):
        status, answer = _post(server, "/v1/x", body)
        assert status == 400
        assert "invalid JSON body" in json.loads(answer)["error"]


#: An integer literal too large for a double.
_HUGE = "1" + "0" * 400


class TestOverflowingIntegers:
    @pytest.mark.parametrize("path,body", [
        ("/v1/x", f'{{"profile":[1.0,{_HUGE}]}}'),
        ("/v1/allocate", f'{{"profile":[1.0],"lifespan":{_HUGE}}}'),
        ("/v1/allocate",
         f'{{"profile":[1.0],"lifespan":10,"params":{{"tau":{_HUGE}}}}}'),
        ("/v1/stream/events",
         f'{{"events":[{{"type":"topology","time":{_HUGE},"workers":{{}}}}]}}'),
    ], ids=["x-profile", "allocate-lifespan", "allocate-params", "stream"])
    def test_over_http_is_400(self, server, path, body):
        status, answer = _post(server, path, body.encode())
        assert status == 400, answer

    @pytest.mark.parametrize("kind,body,error", [
        ("x", {"profile": [1.0, 10**400]}, InvalidProfileError),
        ("work", {"profile": [1.0], "lifespan": 10**400},
         InvalidParameterError),
        ("allocate", {"profile": [1.0], "lifespan": -10**400},
         InvalidParameterError),
        ("x", {"profile": [1.0], "params": {"pi": 10**400}},
         InvalidParameterError),
        ("allocate", {"profile": [1.0], "lifespan": 10.0,
                      "scheme": {"kind": "replication"}, "margin": 10**400},
         InvalidParameterError),
    ], ids=["profile", "lifespan", "negative-lifespan", "params", "margin"])
    def test_python_ints_are_client_errors(self, kind, body, error):
        with pytest.raises(error):
            parse_eval_payload(kind, body)

    def test_python_int_event_fields_are_event_errors(self):
        with pytest.raises(StreamEventError, match="finite"):
            event_from_dict({"type": "topology", "time": 10**400,
                             "workers": {}})


class TestResponseCacheIdentity:
    """The response cache keys on what the solver sees, not on bytes."""

    BASE = {"profile": PROFILE, "lifespan": 100.0, "protocol": "lp"}

    #: Spellings of BASE: each validates to the same solver request.
    SPELLINGS = [
        b'{"protocol":"lp","lifespan":100.0,"profile":[1.0,0.5,0.25]}',
        b'{ "profile" : [1.0, 0.5, 0.25],\n  "lifespan": 100.0,'
        b' "protocol": "lp" }',
        b'{"profile":[1.0,0.5,0.25],"lifespan":100,"protocol":"lp"}',
        b'{"profile":[1.0,0.5,0.25],"lifespan":100.0,"protocol":"lp",'
        b'"params":{"tau":1e-6,"pi":1e-5,"delta":1.0}}',
        b'{"profile":[1.0,0.5,0.25],"lifespan":100.0,"protocol":"lp",'
        b'"params":{}}',
        b'{"profile":[1.0,0.5,0.25],"lifespan":1e2,"protocol":"lp",'
        b'"startup_order":[0,1,2],"finishing_order":[0,1,2],'
        b'"enforce_separation":true}',
    ]

    #: Each changes one solver field of BASE (or of its FIFO variant).
    VARIANTS = [
        {**BASE, "params": {"tau": 2e-6}},
        {**BASE, "params": {"pi": 2e-5}},
        {**BASE, "params": {"delta": 0.5}},
        {**BASE, "startup_order": [2, 1, 0]},
        {**BASE, "finishing_order": [2, 1, 0]},
        {**BASE, "enforce_separation": False},
        {**BASE, "lifespan": 101.0},
        {**BASE, "protocol": "fifo"},
        {**BASE, "protocol": "fifo", "scheme": {"kind": "replication",
                                                "r": 2}},
        {**BASE, "protocol": "fifo", "scheme": {"kind": "replication",
                                                "r": 3}},
        {**BASE, "protocol": "fifo", "scheme": {"kind": "replication",
                                                "r": 2}, "margin": 0.5},
        {**BASE, "protocol": "fifo", "scheme": {"kind": "mds", "k": 2,
                                                "n": 3}},
    ]

    def test_spellings_share_one_entry(self, server):
        cache = server.service.cache
        status, first = _post(server, "/v1/allocate",
                              json.dumps(self.BASE).encode())
        assert status == 200 and (cache.hits, cache.misses) == (0, 1)
        for count, body in enumerate(self.SPELLINGS, start=1):
            status, answer = _post(server, "/v1/allocate", body)
            assert status == 200 and answer == first
            assert (cache.hits, cache.misses) == (count, 1), body
        assert len(cache) == 1

    def test_solver_fields_miss(self, server):
        cache = server.service.cache
        bodies = [self.BASE] + self.VARIANTS
        for count, body in enumerate(bodies, start=1):
            status, answer = _post(server, "/v1/allocate",
                                   json.dumps(body).encode())
            assert status == 200, answer
            assert (cache.hits, cache.misses) == (0, count), body
        assert len(cache) == len(bodies)

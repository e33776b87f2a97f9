"""Live-server tests for the stream endpoints (docs/STREAM.md).

POST /v1/stream/events feeds the single live streaming session (lazily
created, reset via ``reset``, finalised via ``finish``); GET
/v1/stream/state reads its snapshot without mutating it.
"""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service import (ServiceClient, ServiceConfig, ServiceError,
                           ServiceThread)
from repro.stream import event_to_dict, synthetic_trace

PROFILE = [1.0, 0.5, 0.25]


def _events(**kwargs):
    kwargs.setdefault("profile", PROFILE)
    kwargs.setdefault("windows", 3)
    return [event_to_dict(e) for e in synthetic_trace(**kwargs)]


@pytest.fixture()
def server(tmp_path):
    config = ServiceConfig(port=0, result_cache_dir=str(tmp_path / "cache"),
                           store_dir=str(tmp_path / "state"))
    with ServiceThread(config, registry=MetricsRegistry()) as thread:
        yield thread


class TestStreamEvents:
    def test_feed_close_finish_lifecycle(self, server):
        events = _events()
        with server.client() as client:
            first = client.request("POST", "/v1/stream/events",
                                   {"events": events, "window": 10.0})
            assert first["accepted"] == len(events)
            assert all(r["kind"] == "window" for r in first["windows"])
            assert first["state"]["windows_closed"] == len(first["windows"])
            final = client.request("POST", "/v1/stream/events",
                                   {"events": [], "finish": True})
            kinds = [r["kind"] for r in final["windows"]]
            assert kinds[-1] == "summary"
            state = client.request("GET", "/v1/stream/state")
            assert state == {"active": False, "state": None}

    def test_state_reports_live_session(self, server):
        with server.client() as client:
            client.request("POST", "/v1/stream/events",
                           {"events": _events()[:2], "window": 25.0})
            state = client.request("GET", "/v1/stream/state")
            assert state["active"] is True
            assert state["state"]["window_size"] == 25.0
            assert state["state"]["buffered_events"] == 2

    def test_reset_reapplies_session_knobs(self, server):
        with server.client() as client:
            client.request("POST", "/v1/stream/events",
                           {"events": [], "window": 10.0})
            # Without reset, knobs of an existing session are sticky.
            client.request("POST", "/v1/stream/events",
                           {"events": [], "window": 99.0})
            state = client.request("GET", "/v1/stream/state")
            assert state["state"]["window_size"] == 10.0
            fresh = client.request("POST", "/v1/stream/events",
                                   {"events": [], "reset": True,
                                    "window": 99.0, "calibrate": False})
            assert fresh["state"]["window_size"] == 99.0
            assert fresh["state"]["calibrating"] is False

    def test_shadow_profile_flows_through(self, server):
        with server.client() as client:
            out = client.request("POST", "/v1/stream/events",
                                 {"events": _events(),
                                  "what_if": [1.0, 1.0, 1.0, 1.0],
                                  "finish": True})
            window = out["windows"][0]
            assert window["shadow"]["n"] == 4
            assert window["shadow"]["work_rate_delta"] is not None


class TestStreamErrors:
    @pytest.mark.parametrize("body, fragment", [
        ({"events": "nope"}, "events must be"),
        ({"events": [{"type": "bogus", "time": 0.0}]}, "type"),
        ({"events": [42]}, "event 0 must be"),
        ({"events": [], "window": -1.0}, "window"),
        ({"events": [], "calibrate": "yes"}, "calibrate"),
        ({"events": [], "what_if": "1,2"}, "what_if"),
        ({"events": [], "forget": 2.0}, "forget"),
    ])
    def test_bad_requests_are_400(self, server, body, fragment):
        body = dict(body, reset=True)
        with server.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.request("POST", "/v1/stream/events", body)
        assert excinfo.value.status == 400
        assert fragment in str(excinfo.value)

    def test_bad_event_does_not_kill_the_session(self, server):
        with server.client() as client:
            client.request("POST", "/v1/stream/events",
                           {"events": _events()[:3]})
            with pytest.raises(ServiceError):
                client.request("POST", "/v1/stream/events",
                               {"events": [{"type": "bogus", "time": 0.0}]})
            state = client.request("GET", "/v1/stream/state")
            assert state["active"] is True
            assert state["state"]["events_total"] == 3


class TestStreamUnderFleet:
    """One session per process cannot be shared across workers: refuse."""

    @pytest.mark.parametrize("method, path, body", [
        ("POST", "/v1/stream/events", {"events": [], "window": 10.0}),
        ("GET", "/v1/stream/state", None),
    ])
    def test_multi_worker_refuses_with_409(self, tmp_path, method, path,
                                           body):
        config = ServiceConfig(port=0, workers=2, worker_index=0,
                               no_store=True,
                               result_cache_dir=str(tmp_path / "cache"))
        with ServiceThread(config, registry=MetricsRegistry()) as thread:
            with thread.client() as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.request(method, path, body)
        assert excinfo.value.status == 409
        assert excinfo.value.payload["reason"] == "multi_worker"
        assert "single worker" in excinfo.value.payload["error"]

"""Live-server tests for the stream endpoints (docs/STREAM.md).

POST /v1/stream/events feeds the single live streaming session (lazily
created, reset via ``reset``, finalised via ``finish``); GET
/v1/stream/state reads its snapshot without mutating it.
"""

import asyncio

import pytest

from repro.obs import RunStore
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


class TestRefusedPosts:
    """A refused post leaves the session exactly as it found it."""

    JOIN = {"type": "worker_joined", "time": 1.0, "worker": 0}

    def _refused(self, client, body):
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", "/v1/stream/events", body)
        assert excinfo.value.status == 400
        return excinfo.value.payload["error"]

    def test_bad_event_late_in_a_post_feeds_nothing(self, server):
        with server.client() as client:
            client.request("POST", "/v1/stream/events",
                           {"events": _events()[:3]})
            before = client.request("GET", "/v1/stream/state")
            self._refused(client, {"events": [
                self.JOIN, {"type": "bogus", "time": 2.0}]})
            assert client.request("GET", "/v1/stream/state") == before
            # The retry of the corrected post counts its event once.
            client.request("POST", "/v1/stream/events",
                           {"events": [self.JOIN]})
            state = client.request("GET", "/v1/stream/state")["state"]
            assert state["events_total"] == \
                before["state"]["events_total"] + 1

    def test_refused_first_post_opens_no_session(self, server):
        with server.client() as client:
            self._refused(client, {"events": [
                self.JOIN, {"type": "bogus", "time": 2.0}]})
            assert client.request("GET", "/v1/stream/state") == {
                "active": False, "state": None}

    def test_refused_reset_keeps_the_old_session(self, server):
        with server.client() as client:
            client.request("POST", "/v1/stream/events",
                           {"events": _events()[:3]})
            before = client.request("GET", "/v1/stream/state")
            self._refused(client, {"reset": True, "window": 5.0,
                                   "events": [{"type": "bogus",
                                               "time": 2.0}]})
            self._refused(client, {"reset": True, "window": -5.0,
                                   "events": []})
            assert client.request("GET", "/v1/stream/state") == before

    def test_window_index_overflow_is_400(self, server):
        with server.client() as client:
            message = self._refused(client, {
                "reset": True, "window": 1e-320,
                "events": [dict(self.JOIN, time=1e300)]})
            assert message.startswith("StreamEventError")
            assert "too far" in message
            client.request("POST", "/v1/stream/events",
                           {"events": [self.JOIN]})
            # The session's windows hold 64-bit indices only.
            message = self._refused(client, {
                "events": [dict(self.JOIN, time=1e300)]})
            assert "too far" in message
            state = client.request("GET", "/v1/stream/state")["state"]
            assert state["events_total"] == 1

    def test_huge_quantum_is_refused_naming_work(self, server):
        events = _events(windows=4)
        huge = {"type": "task_completed", "time": 15.0, "worker": 1,
                "work": 1e200, "sent": 11.0, "arrived": 12.0,
                "completed": 13.0, "result_started": 14.0}
        with server.client() as client:
            message = self._refused(client, {"events": [huge]})
            assert "'work'" in message
            out = client.request("POST", "/v1/stream/events",
                                 {"events": events, "finish": True})
            assert out["windows"][-1]["kind"] == "summary"


def test_stop_flushes_and_closes_the_store_when_finish_raises(tmp_path):
    config = ServiceConfig(port=0, result_cache_dir=str(tmp_path / "cache"),
                           store_dir=str(tmp_path / "state"))
    thread = ServiceThread(config, registry=MetricsRegistry()).start()
    try:
        with thread.client() as client:
            client.request("POST", "/v1/stream/events",
                           {"events": _events()[:2]})
            client.request("POST", "/v1/x", {"profile": [1.0, 0.5]})
        service = thread.service

        def broken_finish():
            raise RuntimeError("finish failed")

        service._stream.finish = broken_finish
        with pytest.raises(RuntimeError, match="finish failed"):
            asyncio.run_coroutine_threadsafe(
                service.stop(), thread._loop).result(timeout=30)
        assert service.store is None
    finally:
        thread.stop()
    with RunStore(tmp_path / "state" / "runs.sqlite3") as store:
        assert {run["label"] for run in store.runs(kind="request")} \
            == {"/v1/stream/events", "/v1/x"}

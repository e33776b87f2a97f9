"""End-to-end endpoint tests against a live server (ServiceThread).

Each test boots a real asyncio server on an ephemeral loopback port
and talks to it with the blocking :class:`ServiceClient` — the same
path the CI smoke job and the throughput benchmark use.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.core.measure import x_measure
from repro.core.params import PAPER_TABLE1
from repro.core.profile import Profile
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.protocols.general import lp_allocation
from repro.service import (ServiceClient, ServiceConfig, ServiceError,
                           ServiceThread)

PROFILE = [1.0, 0.5, 0.25]


@pytest.fixture()
def server(tmp_path):
    config = ServiceConfig(port=0, result_cache_dir=str(tmp_path / "cache"))
    with ServiceThread(config, registry=MetricsRegistry()) as thread:
        yield thread


class TestEvaluationEndpoints:
    def test_x_matches_library(self, server):
        with server.client() as client:
            got = client.x(PROFILE)
        assert got["x"] == x_measure(Profile(PROFILE), PAPER_TABLE1)
        assert got["n"] == 3

    def test_hecr_and_work(self, server):
        with server.client() as client:
            h = client.hecr(PROFILE)
            w = client.work(PROFILE, lifespan=80.0)
        assert 0 < h["hecr"] < 1
        assert w["work"] == pytest.approx(w["work_rate"] * 80.0)

    def test_custom_params(self, server):
        with server.client() as client:
            default = client.x(PROFILE)
            custom = client.x(PROFILE,
                              params={"tau": 0.5, "pi": 1.0, "delta": 0.5})
        assert custom["x"] != default["x"]

    def test_allocate_lp_matches_library(self, server):
        with server.client() as client:
            got = client.allocate(PROFILE, lifespan=100.0, protocol="lp")
        allocation = lp_allocation(Profile(PROFILE), PAPER_TABLE1, 100.0,
                                   (0, 1, 2), (0, 1, 2))
        assert got["allocation"]["w"] == [float(v) for v in allocation.w]
        assert got["total_work"] == float(allocation.w.sum())

    def test_allocate_fifo_with_order(self, server):
        with server.client() as client:
            got = client.allocate(PROFILE, lifespan=100.0, protocol="fifo",
                                  startup_order=[2, 1, 0])
        assert got["allocation"]["startup_order"] == [2, 1, 0]
        assert got["allocation"]["protocol_name"].lower().startswith("fifo")

    def test_bad_inputs_are_400(self, server):
        with server.client() as client:
            for payload in ({"profile": []},
                            {"profile": [1.0, -2.0]},
                            {"profile": PROFILE, "params": {"zap": 1}},
                            {"profile": PROFILE, "lifespan": -5.0,
                             "protocol": "fifo"},
                            {"profile": [True, 0.5]},
                            {"profile": ["0.5"]},
                            {"profile": [0.5, None]},
                            {"profile": PROFILE, "lifespan": 50.0,
                             "startup_order": [True, 0, 2]}):
                path = ("/v1/allocate" if "lifespan" in payload else "/v1/x")
                with pytest.raises(ServiceError) as excinfo:
                    client.request("POST", path, payload)
                assert excinfo.value.status == 400

    @pytest.mark.parametrize("path, body", [
        ("/v1/x", {}),
        ("/v1/allocate", {"lifespan": 50.0}),
        ("/v1/allocate", {"lifespan": 50.0, "protocol": "lp"}),
    ])
    def test_params_overflowing_derived_constants_are_400(self, server,
                                                          path, body):
        # Finite τ and π whose B = 1 + 2π overflows: refused as invalid
        # input, not answered with NaN or a 500.
        with server.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.request("POST", path, {
                    "profile": PROFILE, "params": {"tau": 0.1, "pi": 1e308},
                    **body})
        assert excinfo.value.status == 400
        error = excinfo.value.payload["error"]
        assert error.startswith("InvalidParameterError: ")
        assert "B is not finite" in error

    def test_work_overflowing_a_finite_lifespan_is_400(self, server):
        # W = L × rate overflows for a finite L: refused as invalid
        # input, not answered with a 500 from the JSON encoder.
        with server.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.work([1.0, 0.5], lifespan=1e308)
            # The refusal is per request: the server answers on.
            assert client.work([1.0, 0.5], lifespan=1e300)["work"] > 0
        assert excinfo.value.status == 400
        error = excinfo.value.payload["error"]
        assert error.startswith("InvalidParameterError: ")
        assert "overflows" in error

    @pytest.mark.parametrize("protocol", ["lp", "fifo"])
    @pytest.mark.parametrize("field", ["startup_order", "finishing_order"])
    @pytest.mark.parametrize("order", [[0, 1, "x"], [0, 1, None],
                                       [0, 1, 1.5], [0, 1, True]],
                             ids=["str", "null", "float", "bool"])
    def test_non_int_order_element_is_400(self, server, protocol, field,
                                          order):
        # The two int elements alone would make a permutation of a
        # two-computer profile; the third must be refused, not coerced.
        with server.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.request("POST", "/v1/allocate",
                               {"profile": [1.0, 0.5], "lifespan": 50.0,
                                "protocol": protocol, field: order})
        assert excinfo.value.status == 400
        assert f"{field} must be a permutation" in excinfo.value.payload["error"]
        assert repr(order) in excinfo.value.payload["error"]

    def test_malformed_json_body_is_400(self, server):
        import http.client
        conn = http.client.HTTPConnection(server.host, server.port)
        try:
            conn.request("POST", "/v1/x", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 400
            assert b"invalid JSON" in response.read()
        finally:
            conn.close()

    def test_unknown_protocol_is_400(self, server):
        with server.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.allocate(PROFILE, lifespan=50.0, protocol="magic")
            assert excinfo.value.status == 400


class TestOperationalEndpoints:
    def test_healthz(self, server):
        with server.client() as client:
            health = client.healthz()
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0

    def test_metrics_exposition(self, server):
        with server.client() as client:
            client.x(PROFILE)
            text = client.metrics_text()
        assert "# TYPE svc_requests_total counter" in text
        assert 'route="/v1/x"' in text

    def test_experiment_index(self, server):
        with server.client() as client:
            experiments = client.experiments()
        by_id = {e["id"]: e for e in experiments}
        assert "fig3" in by_id
        assert set(by_id["fig3"]) == {"id", "description", "shardable"}

    def test_run_experiment_and_result_cache(self, server):
        with server.client() as client:
            first = client.run_experiment("fig3")
            second = client.run_experiment("fig3")
        assert first["cached"] is False
        assert second["cached"] is True
        assert first["result"]["rows"] == second["result"]["rows"]

    def test_repeat_dispatch_is_a_cached_hit_of_one_entry(self, tmp_path):
        cache_dir = tmp_path / "cache"
        config = ServiceConfig(port=0, no_store=True,
                               result_cache_dir=str(cache_dir))
        with ServiceThread(config, registry=MetricsRegistry()) as thread:
            with thread.client() as client:
                first = client.run_experiment("sec4-example")
                second = client.run_experiment("sec4-example")
        assert (first["dedup"], first["cached"]) == ("leader", False)
        assert second["dedup"] == "hit"
        assert second["cached"] is True
        assert second["result"] == first["result"]
        # One store, one write: the result entry and nothing else.
        assert len(list(cache_dir.glob("sec4-example-*.json"))) == 1
        assert list(cache_dir.glob("dispatch-*")) == []

    def test_dispatch_errors_are_classified_by_error_family(
            self, tmp_path, monkeypatch):
        from repro.errors import SimulationError
        from repro.experiments import base

        def raises(exc):
            def experiment():
                raise exc
            return experiment
        monkeypatch.setitem(base._REGISTRY, "keyerror-probe",
                            raises(KeyError("boom")))
        monkeypatch.setitem(base._REGISTRY, "simerror-probe",
                            raises(SimulationError("stuck")))
        config = ServiceConfig(port=0, no_store=True, no_result_cache=True)
        with ServiceThread(config, registry=MetricsRegistry()) as thread:
            with thread.client() as client:
                statuses = {}
                for experiment_id, kwargs in (
                        ("coded-resilience", {"scheme": "mds:5/2"}),
                        ("keyerror-probe", {}),
                        ("simerror-probe", {})):
                    with pytest.raises(ServiceError) as excinfo:
                        client.run_experiment(experiment_id, **kwargs)
                    payload = excinfo.value.payload
                    statuses[experiment_id] = (
                        excinfo.value.status,
                        payload["error"].split(":", 1)[0],
                        payload.get("family"))
        # CodedSchemeError subclasses ProtocolError: a client error.
        assert statuses == {
            "coded-resilience": (400, "CodedSchemeError", None),
            "keyerror-probe": (500, "KeyError", None),
            "simerror-probe": (500, "SimulationError", "fault"),
        }

    def test_unknown_experiment_404(self, server):
        with server.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.run_experiment("not-a-thing")
            assert excinfo.value.status == 404
            assert "known" in excinfo.value.payload

    def test_unknown_route_404_and_wrong_method_405(self, server):
        with server.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.request("GET", "/nope")
            assert excinfo.value.status == 404
            with pytest.raises(ServiceError) as excinfo:
                client.request("GET", "/v1/x")
            assert excinfo.value.status == 405


class TestBatchingOverHttp:
    def test_concurrent_identical_requests_share_one_solve(self, tmp_path):
        config = ServiceConfig(port=0,
                               cache_bytes=0,  # every request solves
                               no_result_cache=True)
        with ServiceThread(config, registry=MetricsRegistry()) as server:
            results, errors = [], []

            def hammer():
                try:
                    with server.client() as client:
                        results.append(client.x(PROFILE)["x"])
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [threading.Thread(target=hammer) for _ in range(12)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            solver = server.service.batcher.solver
            assert not errors
            assert len(set(results)) == 1
            assert results[0] == x_measure(Profile(PROFILE), PAPER_TABLE1)
            # at least some requests must have shared an X evaluation
            assert solver.collapsed + solver.xpool.hits > 0

    def test_concurrent_identical_requests_are_one_solve(self, tmp_path):
        # Each solve runs inline between the response cache's get and
        # put without yielding, so every duplicate is a cache hit.
        registry = MetricsRegistry()
        config = ServiceConfig(port=0, no_result_cache=True, no_store=True)
        with ServiceThread(config, registry=registry) as server:
            connected, go = threading.Barrier(13), threading.Barrier(13)
            held = threading.Event()
            results, errors = [], []

            def hammer():
                try:
                    with server.client() as client:
                        client.healthz()  # connect before the herd
                        connected.wait(timeout=10.0)
                        go.wait(timeout=10.0)
                        results.append(client.x(PROFILE))
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            def hold_loop():
                held.set()
                time.sleep(0.5)

            threads = [threading.Thread(target=hammer) for _ in range(12)]
            for t in threads:
                t.start()
            connected.wait(timeout=10.0)
            # Stall the server's loop while the herd sends, so all twelve
            # requests are waiting together when it next runs.
            server._loop.call_soon_threadsafe(hold_loop)
            assert held.wait(timeout=10.0)
            go.wait(timeout=10.0)
            for t in threads:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads)
            xpool = server.service.batcher.solver.xpool
            assert not errors
            assert results == [results[0]] * 12
            assert xpool.hits + xpool.misses == 1
        hits = registry.counter(
            "svc_response_cache_hits_total", "").value(kind="x")
        assert hits == 11

    def test_lone_request_does_not_wait_for_company(self, tmp_path):
        registry = MetricsRegistry()
        config = ServiceConfig(port=0, cache_bytes=0,
                               no_result_cache=True, no_store=True)
        with ServiceThread(config, registry=registry) as server:
            with server.client() as client:
                client.healthz()  # connect before timing
                started = time.perf_counter()
                got = client.x(PROFILE)
                elapsed = time.perf_counter() - started
        assert got["x"] == x_measure(Profile(PROFILE), PAPER_TABLE1)
        assert elapsed < 0.5

    def test_response_cache_serves_repeats(self, tmp_path):
        registry = MetricsRegistry()
        config = ServiceConfig(port=0, no_result_cache=True)
        with ServiceThread(config, registry=registry) as server:
            with server.client() as client:
                first = client.x(PROFILE)
                second = client.x(PROFILE)
        assert first == second
        hits = registry.counter(
            "svc_response_cache_hits_total", "").value(kind="x")
        assert hits >= 1


class TestAdmissionOverHttp:
    def test_rate_limit_sheds_429_with_retry_after(self, tmp_path):
        config = ServiceConfig(port=0, rate=1.0, burst=1.0,
                               no_result_cache=True)
        with ServiceThread(config, registry=MetricsRegistry()) as server:
            with server.client() as client:
                client.x(PROFILE)  # consumes the single burst token
                with pytest.raises(ServiceError) as excinfo:
                    client.x([0.9, 0.8])
        assert excinfo.value.status == 429
        assert excinfo.value.shed
        assert excinfo.value.retry_after >= 1.0
        assert excinfo.value.payload["error"].startswith("shed")

    def test_healthz_and_metrics_exempt_from_shedding(self, tmp_path):
        config = ServiceConfig(port=0, rate=1.0, burst=1.0,
                               no_result_cache=True)
        with ServiceThread(config, registry=MetricsRegistry()) as server:
            with server.client() as client:
                client.x(PROFILE)
                # bucket is empty, but the operational endpoints answer
                assert client.healthz()["status"] == "ok"
                assert "svc_shed_total" not in client.metrics_text() or True
                text = client.metrics_text()
        assert "svc_requests_total" in text


class TestDeadlines:
    def test_deadline_header_cancels_with_504(self, tmp_path):
        config = ServiceConfig(port=0, cache_bytes=0, no_result_cache=True)
        with ServiceThread(config, registry=MetricsRegistry()) as server:
            big = list(np.random.default_rng(0).uniform(0.1, 1.0, 600))
            with server.client() as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.x(big, deadline_ms=0.0001)
        assert excinfo.value.status == 504

    def test_generous_deadline_succeeds(self, tmp_path):
        config = ServiceConfig(port=0, no_result_cache=True)
        with ServiceThread(config, registry=MetricsRegistry()) as server:
            with server.client() as client:
                got = client.x(PROFILE, deadline_ms=30000)
        assert got["n"] == 3


class TestObservability:
    def test_request_spans_ingested(self, tmp_path):
        tracer = Tracer()
        config = ServiceConfig(port=0, no_result_cache=True)
        with ServiceThread(config, registry=MetricsRegistry(),
                           tracer=tracer) as server:
            with server.client() as client:
                client.x(PROFILE)
                client.healthz()
        names = {r["name"] for r in tracer.records}
        assert "svc:/v1/x" in names
        assert "svc:/healthz" in names
        span = tracer.records_named("svc:/v1/x")[0]
        assert span["attrs"]["code"] == 200
        assert span["dur"] >= 0

    def test_inflight_gauge_returns_to_zero(self, tmp_path):
        registry = MetricsRegistry()
        config = ServiceConfig(port=0, no_result_cache=True)
        with ServiceThread(config, registry=registry) as server:
            with server.client() as client:
                client.x(PROFILE)
        assert registry.gauge("svc_inflight", "").value() == 0


class TestKeepAliveAndFraming:
    def test_many_requests_one_connection(self, server):
        with server.client() as client:
            for _ in range(5):
                assert client.healthz()["status"] == "ok"

    def test_oversized_body_rejected(self, tmp_path):
        config = ServiceConfig(port=0, max_body_bytes=64,
                               no_result_cache=True)
        with ServiceThread(config, registry=MetricsRegistry()) as server:
            with server.client() as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.x([0.5] * 200)
        assert excinfo.value.status == 413


class TestClientTransport:
    def test_transport_error_reconnects(self, server):
        client = ServiceClient(server.host, server.port)
        assert client.healthz()["status"] == "ok"
        client._conn.close()  # simulate a dropped keep-alive socket
        # http.client raises on the dead socket; the client resets and
        # the next call transparently reconnects.
        try:
            client.healthz()
        except ServiceError:
            pass
        assert client.healthz()["status"] == "ok"
        client.close()

    def test_error_payload_decoded(self, server):
        with server.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.request("POST", "/v1/x", {"profile": "zebra"})
        assert excinfo.value.status == 400
        assert "error" in excinfo.value.payload
        assert json.dumps(excinfo.value.payload)  # JSON-safe

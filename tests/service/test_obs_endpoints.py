"""Service observability surfaces: obs endpoints, spans, SLO, logging.

Covers the telemetry contract end to end against a live server: every
response carries trace headers, every request lands a ``svc:<route>``
span record and (by default) a run-history-store row, ``/metrics``
exposes exemplars and SLO burn gauges, and a traced experiment dispatch
through the batch pool yields one connected span tree retrievable from
the store and exportable as Perfetto JSON.
"""

import http.client
import json
import logging

import pytest

from repro.obs.export import perfetto_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.service import ServiceConfig, ServiceError, ServiceThread

PROFILE = [1.0, 0.5, 0.25]


def _boot(tmp_path, *, tracer=None, **overrides):
    defaults = dict(port=0, no_result_cache=True,
                    store_dir=str(tmp_path / "obs"))
    defaults.update(overrides)
    return ServiceThread(ServiceConfig(**defaults),
                         registry=MetricsRegistry(), tracer=tracer)


def _raw_response(server, method: str, path: str, payload=None):
    conn = http.client.HTTPConnection(server.host, server.port)
    try:
        body = (json.dumps(payload).encode() if payload is not None else None)
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


class TestTraceHeaders:
    def test_every_response_carries_trace_and_span_ids(self, tmp_path):
        with _boot(tmp_path) as server:
            status, headers, _ = _raw_response(
                server, "POST", "/v1/x", {"profile": PROFILE})
            assert status == 200
            assert headers["X-Repro-Trace-Id"] == server.service.tracer.trace_id
            first_span = headers["X-Repro-Span-Id"]
            _, headers2, _ = _raw_response(server, "GET", "/healthz")
        assert len(first_span) == 16
        assert headers2["X-Repro-Span-Id"] != first_span  # per-request
        assert headers2["X-Repro-Trace-Id"] == headers["X-Repro-Trace-Id"]

    def test_errors_carry_trace_headers_too(self, tmp_path):
        with _boot(tmp_path) as server:
            status, headers, _ = _raw_response(server, "GET", "/nope")
        assert status == 404
        assert headers["X-Repro-Trace-Id"]
        assert headers["X-Repro-Span-Id"]


class TestRecordSpan:
    """Regression for the hand-built span-dict this layer replaced:
    request spans must come from ``Tracer.record_span`` with real ids."""

    def test_request_emits_linked_span_record(self, tmp_path):
        tracer = Tracer(keep_records=True)
        with _boot(tmp_path, tracer=tracer) as server:
            _, headers, _ = _raw_response(
                server, "POST", "/v1/x", {"profile": PROFILE})
        spans = tracer.records_named("svc:/v1/x")
        assert spans, "request did not emit a svc:<route> span"
        (span,) = spans
        assert span["type"] == "span"
        assert span["span_id"] == headers["X-Repro-Span-Id"]
        assert span["trace_id"] == tracer.trace_id
        assert span["attrs"]["code"] == 200
        assert span["attrs"]["method"] == "POST"
        assert span["dur"] >= 0.0


class TestMetricsSurfaces:
    def test_exposition_has_exemplars_and_slo_gauge(self, tmp_path):
        with _boot(tmp_path, slo_latency=1e-9) as server:
            with server.client() as client:
                client.x(PROFILE)
                text = client.metrics_text()
            trace_id = server.service.tracer.trace_id
        assert "# TYPE svc_slo_burn_rate gauge" in text
        burn_lines = [ln for ln in text.splitlines()
                      if ln.startswith("svc_slo_burn_rate")
                      and 'route="/v1/x"' in ln]
        assert burn_lines
        # slo_latency ~ 0 makes every request bad: burn rate = 1/budget
        assert float(burn_lines[0].rsplit(" ", 1)[1]) == pytest.approx(
            1.0 / (1.0 - ServiceConfig().slo_objective))
        exemplar_lines = [ln for ln in text.splitlines()
                          if ln.startswith("svc_request_seconds_bucket")
                          and " # {" in ln]
        assert exemplar_lines, "no exemplar on any latency bucket"
        assert f'trace_id="{trace_id}"' in exemplar_lines[0]

    def test_slo_gauge_absent_when_disabled(self, tmp_path):
        with _boot(tmp_path, slo_latency=0.0) as server:
            with server.client() as client:
                client.x(PROFILE)
                text = client.metrics_text()
        assert "svc_slo_burn_rate" not in text


class TestObsEndpoints:
    def test_summary_reports_store_and_slo(self, tmp_path):
        with _boot(tmp_path) as server:
            with server.client() as client:
                client.x(PROFILE)
                summary = client.request("GET", "/v1/obs/summary")
        assert summary["store_enabled"] is True
        assert summary["store"]["by_kind"] == {"request": 1}
        assert summary["trace_id"]
        route_slo = summary["slo"]["routes"]["/v1/x"]
        assert route_slo["requests"] == 1

    def test_requests_become_store_rows(self, tmp_path):
        with _boot(tmp_path) as server:
            with server.client() as client:
                client.x(PROFILE)
                runs = client.request("GET", "/v1/obs/runs")["runs"]
        (row,) = runs
        assert row["kind"] == "request"
        assert row["label"] == "/v1/x"
        assert row["status"] == "200"
        assert row["extra"]["method"] == "POST"

    def test_obs_routes_are_not_self_recorded(self, tmp_path):
        with _boot(tmp_path) as server:
            with server.client() as client:
                client.request("GET", "/v1/obs/runs")
                runs = client.request("GET", "/v1/obs/runs")["runs"]
        assert runs == []  # watching the store must not fill the store

    def test_single_run_with_spans_and_404(self, tmp_path):
        with _boot(tmp_path) as server:
            with server.client() as client:
                client.x(PROFILE)
                run_id = client.request(
                    "GET", "/v1/obs/runs")["runs"][0]["run_id"]
                detail = client.request("GET", f"/v1/obs/runs/{run_id[:8]}")
                assert detail["run"]["run_id"] == run_id
                with pytest.raises(ServiceError) as excinfo:
                    client.request("GET", "/v1/obs/runs/zzzz")
        assert excinfo.value.status == 404

    def test_store_disabled_degrades_to_503(self, tmp_path):
        with _boot(tmp_path, no_store=True) as server:
            with server.client() as client:
                summary = client.request("GET", "/v1/obs/summary")
                assert summary["store_enabled"] is False
                assert summary["store"] is None
                with pytest.raises(ServiceError) as excinfo:
                    client.request("GET", "/v1/obs/runs")
        assert excinfo.value.status == 503


class TestAccessLog:
    def test_one_json_line_per_request(self, tmp_path, caplog):
        with _boot(tmp_path) as server:
            with caplog.at_level(logging.INFO, logger="repro.service.access"):
                with server.client() as client:
                    client.x(PROFILE)
            trace_id = server.service.tracer.trace_id
        lines = [json.loads(r.message) for r in caplog.records
                 if r.name == "repro.service.access"]
        entry = next(ln for ln in lines if ln["route"] == "/v1/x")
        assert entry["method"] == "POST"
        assert entry["status"] == 200
        assert entry["latency_ms"] >= 0.0
        assert entry["trace_id"] == trace_id
        assert len(entry["span_id"]) == 16
        assert entry["shed"] is None

    def test_silent_at_default_level(self, tmp_path, caplog):
        with _boot(tmp_path) as server:
            with caplog.at_level(logging.WARNING,
                                 logger="repro.service.access"):
                with server.client() as client:
                    client.x(PROFILE)
        assert not [r for r in caplog.records
                    if r.name == "repro.service.access"]


class TestExperimentDispatchTree:
    """The acceptance scenario: a request dispatched into
    ``run_batch --jobs 2`` yields one connected span tree, stored."""

    def test_single_connected_tree_stored_and_exportable(self, tmp_path):
        tracer = Tracer(keep_records=True)
        with _boot(tmp_path, tracer=tracer, jobs=2) as server:
            with server.client() as client:
                got = client.run_experiment(
                    "majorization", trials_per_size=30, seed=5)
                runs = client.request(
                    "GET", "/v1/obs/runs")["runs"]
        assert got["result"]["rows"]

        # one coherent tree: every record shares the session trace id
        records = tracer.records
        assert {r["trace_id"] for r in records} == {tracer.trace_id}
        (batch_span,) = tracer.records_named("batch:run")
        (request_span,) = tracer.records_named(
            "svc:/v1/experiments/{id}")
        assert batch_span["parent_id"] == request_span["span_id"]
        span_ids = {r["span_id"] for r in records if "span_id" in r}
        for record in records:
            parent = record.get("parent_id")
            assert parent is None or parent in span_ids
        # the pool actually fanned out and its roots link to batch:run
        worker_roots = [r for r in records
                        if r["attrs"].get("worker_pid") and r["depth"] == 0]
        assert worker_roots
        assert {r["parent_id"] for r in worker_roots} == \
            {batch_span["span_id"]}

        # the dispatch landed in the store, joined by trace id
        experiment_rows = [r for r in runs if r["kind"] == "experiment"]
        (row,) = experiment_rows
        assert row["label"] == "majorization"
        assert row["trace_id"] == tracer.trace_id
        assert row["cache_key"]
        assert row["extra"]["jobs"] == 2
        assert row["extra"]["span_id"] == request_span["span_id"]

        # and the whole tree exports as valid Perfetto JSON
        doc = json.loads(json.dumps(perfetto_trace(records)))
        assert {e["ph"] for e in doc["traceEvents"]} >= {"X", "M"}
        worker_pids = {e["pid"] for e in doc["traceEvents"]} - {0}
        assert worker_pids, "no worker process lanes in the export"

"""Unit tests for repro.obs.tracing: spans, events, ambient observation."""

import re

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import (
    Observation,
    SimulationObserver,
    Tracer,
    current_observation,
    new_span_id,
    observe,
    traced,
)


class TestSpanIds:
    def test_sixteen_lowercase_hex_characters(self):
        for _ in range(100):
            assert re.fullmatch(r"[0-9a-f]{16}", new_span_id())

    def test_every_position_is_random(self):
        # A uuid4 prefix fixes index 12 (the version nibble) at '4'.
        ids = [new_span_id() for _ in range(200)]
        assert len(set(ids)) == 200
        assert len({span_id[12] for span_id in ids}) > 1


class TestSpans:
    def test_span_records_name_duration_depth(self):
        tracer = Tracer()
        with tracer.span("outer"):
            pass
        (record,) = tracer.records
        assert record["type"] == "span"
        assert record["name"] == "outer"
        assert record["depth"] == 0
        assert record["dur"] >= 0.0

    def test_nesting_child_closes_first_with_greater_depth(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
        names = [r["name"] for r in tracer.records]
        assert names == ["child", "parent"]
        assert tracer.records_named("child")[0]["depth"] == 1
        assert tracer.records_named("parent")[0]["depth"] == 0

    def test_span_attrs_mutable_until_close(self):
        tracer = Tracer()
        with tracer.span("work", fixed=1) as attrs:
            attrs["rows"] = 42
        record = tracer.records[0]
        assert record["attrs"] == {"fixed": 1, "rows": 42}

    def test_exception_marks_error_and_unwinds_stack(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("no")
        assert tracer.records[0]["attrs"]["error"] is True
        assert tracer.active_depth == 0

    def test_events_carry_attrs_and_depth(self):
        tracer = Tracer()
        with tracer.span("ctx"):
            tracer.event("tick", t=1.5)
        event = tracer.records_named("tick")[0]
        assert event["type"] == "event"
        assert event["attrs"]["t"] == 1.5
        assert event["depth"] == 1

    def test_sink_receives_every_record(self):
        seen = []
        tracer = Tracer(sink=seen.append, keep_records=False)
        tracer.event("a")
        with tracer.span("b"):
            pass
        assert [r["name"] for r in seen] == ["a", "b"]
        assert tracer.records == ()  # keep_records=False


class TestAmbientObservation:
    def test_default_is_none(self):
        assert current_observation() is None

    def test_observe_installs_and_restores(self):
        ctx = Observation(tracer=Tracer())
        with observe(ctx) as installed:
            assert installed is ctx
            assert current_observation() is ctx
        assert current_observation() is None

    def test_nested_observe_restores_outer(self):
        outer, inner = Observation(), Observation()
        with observe(outer):
            with observe(inner):
                assert current_observation() is inner
            assert current_observation() is outer


class TestTracedDecorator:
    def test_no_observation_is_passthrough(self):
        @traced()
        def add(a, b):
            return a + b
        assert add(1, 2) == 3

    def test_traced_emits_span_with_default_name(self):
        @traced()
        def compute():
            return 7
        tracer = Tracer()
        with observe(Observation(tracer=tracer)):
            assert compute() == 7
        (record,) = tracer.records
        assert record["name"].endswith("compute")

    def test_traced_custom_name(self):
        @traced("custom.name")
        def f():
            return None
        tracer = Tracer()
        with observe(Observation(tracer=tracer)):
            f()
        assert tracer.records[0]["name"] == "custom.name"


class TestSimulationObserver:
    def test_on_event_tracks_peak_depth_and_count(self):
        obs = SimulationObserver()
        obs.on_event(0.0, "a", 3)
        obs.on_event(1.0, "b", 7)
        obs.on_event(2.0, "c", 2)
        assert obs.events_seen == 3
        assert obs.peak_queue_depth == 7

    def test_run_metrics_recorded_on_run_end(self):
        class FakeSim:
            now = 5.0
            events_processed = 12
            peak_queue_depth = 4
        registry = MetricsRegistry()
        obs = SimulationObserver(registry=registry)
        obs.on_run_start(FakeSim())
        obs.on_run_end(FakeSim())
        assert registry.counter("sim_runs_total").value() == 1.0
        assert registry.counter("sim_events_total").value() == 12.0
        assert registry.gauge("sim_queue_depth_peak").value() == 4.0


class TestIngest:
    """Folding worker-process trace records back into a session tracer."""

    def test_reemits_records_and_counts(self):
        worker = Tracer(keep_records=True)
        with worker.span("shard:x[0]"):
            worker.event("tick")
        session = Tracer(keep_records=True)
        assert session.ingest(worker.records) == 2
        assert [r["name"] for r in session.records] == ["tick", "shard:x[0]"]

    def test_extra_attrs_mark_provenance(self):
        worker = Tracer(keep_records=True)
        with worker.span("work", n=8):
            pass
        session = Tracer(keep_records=True)
        session.ingest(worker.records, worker_pid=4242)
        record, = session.records
        assert record["attrs"]["worker_pid"] == 4242
        assert record["attrs"]["n"] == 8  # original attrs survive

    def test_ingested_records_reach_sinks(self):
        seen = []
        session = Tracer(keep_records=False)
        session.add_sink(seen.append)
        session.ingest([{"type": "event", "name": "e", "ts": 0.0,
                         "depth": 0, "attrs": {}}], task="t1")
        assert seen[0]["attrs"] == {"task": "t1"}

    def test_source_records_are_not_mutated(self):
        original = {"type": "event", "name": "e", "ts": 0.0,
                    "depth": 0, "attrs": {}}
        Tracer(keep_records=True).ingest([original], worker_pid=1)
        assert original["attrs"] == {}

"""Unit tests for repro.obs.store: the persistent run-history tier."""

import threading
import time

from repro.obs.store import RunStore, default_store_path
from repro.obs.tracing import Tracer


class TestDefaultPath:
    def test_env_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        assert default_store_path() == tmp_path / "runs.sqlite3"

    def test_xdg_state_home_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_OBS_DIR", raising=False)
        monkeypatch.setenv("XDG_STATE_HOME", str(tmp_path))
        assert default_store_path() == (
            tmp_path / "repro-hetero" / "runs.sqlite3")


class TestRecordAndRead:
    def test_round_trip_with_documents(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite3") as store:
            run_id = store.record_run(
                kind="experiment", label="table3", trace_id="t" * 32,
                cache_key="deadbeef", status="ok",
                wall_seconds=0.5,
                metrics={"sim_runs_total": {"value": 3}},
                extra={"cached": True, "jobs": 2})
            assert run_id is not None
            run = store.get_run(run_id)
        assert run["kind"] == "experiment"
        assert run["label"] == "table3"
        assert run["trace_id"] == "t" * 32
        assert run["cache_key"] == "deadbeef"
        assert run["metrics"] == {"sim_runs_total": {"value": 3}}
        assert run["extra"] == {"cached": True, "jobs": 2}
        assert run["started_iso"].startswith("20")  # formatted, not epoch

    def test_runs_newest_first_and_kind_filter(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite3") as store:
            store.record_run(kind="run", label="old", started_at=100.0)
            store.record_run(kind="request", label="req", started_at=200.0)
            store.record_run(kind="run", label="new", started_at=300.0)
            labels = [r["label"] for r in store.runs()]
            only_runs = [r["label"] for r in store.runs(kind="run")]
        assert labels == ["new", "req", "old"]
        assert only_runs == ["new", "old"]

    def test_prefix_lookup_must_be_unambiguous(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite3") as store:
            store.record_run(kind="run", run_id="abc111")
            store.record_run(kind="run", run_id="abc222")
            store.record_run(kind="run", run_id="xyz333")
            assert store.get_run("xyz")["run_id"] == "xyz333"
            assert store.get_run("abc") is None  # two matches
            assert store.get_run("abc1")["run_id"] == "abc111"
            assert store.get_run("nope") is None

    def test_latest_by_kind(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite3") as store:
            store.record_run(kind="run", label="a", started_at=1.0)
            store.record_run(kind="request", label="b", started_at=2.0)
            assert store.latest()["label"] == "b"
            assert store.latest(kind="run")["label"] == "a"
            assert store.latest(kind="bench") is None


class TestSpans:
    def test_tracer_records_survive_round_trip(self, tmp_path):
        tracer = Tracer(keep_records=True)
        with tracer.span("outer", n=8):
            tracer.event("tick")
        with RunStore(tmp_path / "runs.sqlite3") as store:
            run_id = store.record_run(
                kind="run", trace_id=tracer.trace_id,
                spans=tracer.records)
            stored = store.spans(run_id)
        assert [r["name"] for r in stored] == ["tick", "outer"]
        outer = stored[1]
        assert outer["type"] == "span"
        assert outer["attrs"]["n"] == 8
        assert outer["trace_id"] == tracer.trace_id
        assert "dur" in outer and "span_id" in outer
        event = stored[0]
        assert "dur" not in event and "span_id" not in event

    def test_spans_accepts_run_id_prefix(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite3") as store:
            run_id = store.record_run(
                kind="run",
                spans=[{"type": "event", "name": "e", "ts": 0.0}])
            assert [r["name"] for r in store.spans(run_id[:6])] == ["e"]

    def test_spans_for_trace_joins_across_runs(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite3") as store:
            for name in ("first", "second"):
                store.record_run(
                    kind="request", trace_id="shared-trace",
                    spans=[{"type": "span", "name": name, "ts": 0.0,
                            "dur": 0.1}])
            names = {r["name"] for r in store.spans_for_trace("shared-trace")}
        assert names == {"first", "second"}


class TestSummaryAndPrune:
    def test_summary_counts(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite3") as store:
            store.record_run(kind="run", status="ok",
                             spans=[{"name": "s", "ts": 0.0}])
            store.record_run(kind="request", status="error")
            digest = store.summary()
        assert digest["runs"] == 2
        assert digest["spans"] == 1
        assert digest["by_kind"] == {"run": 1, "request": 1}
        assert digest["by_status"] == {"ok": 1, "error": 1}
        assert digest["latest"] is not None
        assert digest["db_bytes"] > 0

    def test_prune_max_runs_keeps_newest(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite3") as store:
            for i in range(5):
                store.record_run(kind="run", label=f"r{i}",
                                 started_at=float(i),
                                 spans=[{"name": "s", "ts": 0.0}])
            assert store.prune(max_runs=2) == 3
            kept = [r["label"] for r in store.runs()]
            assert kept == ["r4", "r3"]
            # orphaned spans go with their runs
            assert store.summary()["spans"] == 2

    def test_prune_max_age(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite3") as store:
            store.record_run(kind="run", label="ancient",
                             started_at=time.time() - 10 * 86400.0)
            store.record_run(kind="run", label="fresh")
            assert store.prune(max_age_days=1.0) == 1
            assert [r["label"] for r in store.runs()] == ["fresh"]


class TestDurability:
    def test_concurrent_threads_all_recorded(self, tmp_path):
        """WAL + the connection lock arbitrate racing writers."""
        with RunStore(tmp_path / "runs.sqlite3") as store:
            def write(i: int) -> None:
                store.record_run(kind="request", label=f"req{i}",
                                 spans=[{"name": "s", "ts": 0.0}])
            threads = [threading.Thread(target=write, args=(i,))
                       for i in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert store.summary() == store.summary()  # readable after race
            assert store.summary()["runs"] == 16
            assert store.summary()["spans"] == 16

    def test_two_stores_same_path_share_history(self, tmp_path):
        path = tmp_path / "runs.sqlite3"
        with RunStore(path) as writer:
            writer.record_run(kind="run", label="from-writer")
        with RunStore(path) as reader:
            assert reader.latest()["label"] == "from-writer"

    def test_write_failure_degrades_to_none(self, tmp_path):
        """The durability contract: a broken store never raises."""
        store = RunStore(tmp_path / "runs.sqlite3")
        store._conn.close()  # simulate a dead backend
        assert store.record_run(kind="run") is None
        assert store.record_runs([{"kind": "run"}]) == 0
        assert store.add_spans("x", [{"name": "s", "ts": 0.0}]) == 0

    def test_record_runs_writes_a_batch(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite3") as store:
            written = store.record_runs([
                {"kind": "request", "label": f"/v1/x#{i}", "status": "200",
                 "started_at": 100.0 + i, "wall_seconds": 0.001,
                 "extra": {"method": "POST"}} for i in range(5)])
            assert store.record_runs([]) == 0
            runs = store.runs()
        assert written == 5
        assert [r["label"] for r in runs] == [f"/v1/x#{i}"
                                               for i in reversed(range(5))]
        assert {r["extra"]["method"] for r in runs} == {"POST"}
        assert len({r["run_id"] for r in runs}) == 5

    def test_record_runs_is_all_or_nothing(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite3") as store:
            store.record_run(kind="run", run_id="taken")
            # The schema refuses a NULL kind: the second row fails, and
            # the first must not be committed by a later write.
            assert store.record_runs([{"kind": "run", "label": "first"},
                                      {"kind": None}]) == 0
            store.record_run(kind="run", label="later")
            labels = sorted(r["label"] for r in store.runs())
        assert labels == ["", "later"]

    def test_unjsonable_documents_stored_as_null(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite3") as store:
            run_id = store.record_run(
                kind="run", extra={("tuple", "key"): 1})  # unjsonable key
            assert store.get_run(run_id)["extra"] is None

    def test_what_orjson_refuses_falls_back_to_stdlib_json(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite3") as store:
            big = store.record_run(kind="run", extra={
                "big": 10 ** 20, "nested": {1: "int key"}})
            non_finite = store.record_run(kind="run", extra={
                "nan": float("nan"), "inf": float("inf")})
            assert store.get_run(big)["extra"] == {
                "big": 10 ** 20, "nested": {"1": "int key"}}
            # orjson writes non-finite floats as null.
            assert store.get_run(non_finite)["extra"] == {"nan": None,
                                                          "inf": None}

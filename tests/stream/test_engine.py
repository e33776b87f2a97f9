"""StreamProcessor tests: records, shadow mode, store lifecycle, replay."""

import json
import tracemalloc

import pytest

from repro.core.params import PAPER_TABLE1, ModelParams
from repro.core.profile import Profile
from repro.errors import StreamError
from repro.obs import MetricsRegistry, RunStore
from repro.stream import (StreamEvent, StreamProcessor, event_to_dict,
                          parse_event_line, record_to_line, store_source,
                          synthetic_trace)

PROFILE = Profile([1.0, 0.5, 0.25])


def _run(processor, events):
    records = list(processor.process(events))
    records.extend(processor.finish())
    return records


def _trace(**kwargs):
    kwargs.setdefault("profile", PROFILE)
    kwargs.setdefault("params", PAPER_TABLE1)
    kwargs.setdefault("windows", 3)
    return list(synthetic_trace(**kwargs))


class TestRecords:
    def test_window_records_then_summary(self):
        records = _run(StreamProcessor(10.0), _trace())
        kinds = [r["kind"] for r in records]
        assert kinds[-1] == "summary"
        assert set(kinds[:-1]) == {"window"}
        window = records[0]
        assert window["evaluation"]["n"] == len(PROFILE.rho)
        fractions = window["evaluation"]["allocation"].values()
        assert sum(fractions) == pytest.approx(1.0)
        assert window["calibration"] is not None

    def test_records_are_strict_sorted_json(self):
        for record in _run(StreamProcessor(10.0), _trace()):
            line = record_to_line(record)
            # Strict JSON (no NaN/Infinity) with byte-stable key order.
            parsed = json.loads(line, parse_constant=pytest.fail)
            assert record_to_line(parsed) == line

    def test_calibrate_off_uses_declared_model(self):
        processor = StreamProcessor(10.0, calibrate=False)
        records = _run(processor, _trace())
        window = records[0]
        assert window["calibration"] is None
        assert window["params"]["tau"] == PAPER_TABLE1.tau
        assert window["workers"] == window["declared"]

    def test_empty_stream_summary_only(self):
        records = _run(StreamProcessor(10.0), [])
        assert [r["kind"] for r in records] == ["summary"]
        assert records[0]["windows"] == 0

    def test_measures_that_overflow_read_null(self):
        # B·ρ overflows for ρ = 1e308: X has no finite value, and the
        # window says so instead of failing.
        events = [StreamEvent(time=0.0, type="topology",
                              workers=((0, 1e308),)),
                  StreamEvent(time=11.0, type="worker_joined", worker=1,
                              rho=1.0)]
        window = _run(StreamProcessor(
            10.0, calibrate=False, params=ModelParams(tau=0.1, pi=1.0)),
            events)[0]
        evaluation = window["evaluation"]
        assert evaluation["x"] is None and evaluation["hecr"] is None
        assert evaluation["allocation"] == {"0": 1.0}
        json.loads(record_to_line(window), parse_constant=pytest.fail)

    def test_split_that_overflows_reads_null(self):
        # A finite X, but the FIFO split's ratios overflow to inf/inf.
        events = [StreamEvent(time=0.0, type="topology",
                              workers=((0, 1.0), (1, 1e308), (2, 0.5))),
                  StreamEvent(time=11.0, type="worker_joined", worker=3,
                              rho=1.0)]
        window = _run(StreamProcessor(10.0, calibrate=False), events)[0]
        assert window["evaluation"]["x"] is not None
        assert window["evaluation"]["allocation"]["2"] is None
        json.loads(record_to_line(window), parse_constant=pytest.fail)

    def test_summary_surfaces_drift_clauses(self):
        processor = StreamProcessor(10.0, forget=0.25)
        records = _run(processor, _trace(windows=8, drift_worker=1,
                                         drift_factor=2.0, drift_window=2))
        drift = records[-1]["drift"]
        assert drift["workers"] == ["1"]
        assert all(c.startswith("speeds:1@") for c in drift["clauses"])


class TestShadowMode:
    def test_shadow_evaluated_with_deltas(self):
        processor = StreamProcessor(10.0, what_if=[1.0, 1.0, 1.0, 1.0])
        window = _run(processor, _trace())[0]
        shadow = window["shadow"]
        assert shadow["n"] == 4
        real_rate = window["evaluation"]["work_rate"]
        assert shadow["work_rate_delta"] == pytest.approx(
            shadow["work_rate"] - real_rate)
        assert shadow["work_rate_delta_pct"] == pytest.approx(
            100.0 * shadow["work_rate_delta"] / real_rate)

    def test_shadow_does_not_perturb_real_evaluation(self):
        plain = _run(StreamProcessor(10.0), _trace())
        shadowed = _run(StreamProcessor(10.0, what_if=[2.0]), _trace())
        for a, b in zip(plain, shadowed):
            if a["kind"] == "window":
                assert a["evaluation"] == b["evaluation"]

    @pytest.mark.parametrize("bad", [[], [0.0], [-1.0], [float("nan")],
                                     [None], ["1.0"], [True]])
    def test_bad_shadow_profile_rejected(self, bad):
        with pytest.raises(StreamError, match="what-if"):
            StreamProcessor(10.0, what_if=bad)


class TestMetrics:
    def test_stream_series_published(self):
        registry = MetricsRegistry()
        _run(StreamProcessor(10.0, registry=registry), _trace())
        snapshot = registry.snapshot()
        assert snapshot["stream_windows_total"]["series"]
        assert any(name == "stream_calibration_mape" for name in snapshot)
        rho = snapshot["stream_rho"]["series"]
        assert len(rho) == len(PROFILE.rho)


class TestStoreLifecycle:
    def test_run_row_running_then_ok(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite3") as store:
            processor = StreamProcessor(10.0, store=store, label="twin")
            events = _trace()
            for event in events[:2]:
                processor.feed(event)
            live = store.get_run(processor.run_id)
            assert live["status"] == "running"
            _run(processor, events[2:])
            done = store.get_run(processor.run_id)
            assert done["status"] == "ok"
            assert done["kind"] == "stream"
            assert "events" not in done["extra"]
            spans = store.spans(processor.run_id)
            assert spans
            assert all(s["name"] == "stream:window" for s in spans)
            stored = [e for s in spans for e in s["attrs"]["arrivals"]]
            assert stored == [event_to_dict(e) for e in events]

    def test_replay_from_store_is_bit_identical(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite3") as store:
            original = StreamProcessor(10.0, store=store)
            first = [record_to_line(r)
                     for r in _run(original, _trace(windows=4))]
            replayed = StreamProcessor(10.0)
            second = [record_to_line(r)
                      for r in _run(replayed,
                                    store_source(store, original.run_id))]
            assert second == first

    def test_late_events_replay_in_arrival_order(self, tmp_path):
        events = _trace(windows=5)
        early = [e for e in events if e.time < 10.0 and e.type != "topology"]
        # Late copies of window-0 events arrive while windows 2 and 4 are
        # open; the run's rows must hand them back where they arrived.
        third = next(i for i, e in enumerate(events) if e.time >= 20.0)
        fifth = next(i for i, e in enumerate(events) if e.time >= 40.0)
        events = (events[:third] + early[:2] + events[third:fifth]
                  + early[2:3] + events[fifth:])
        with RunStore(tmp_path / "runs.sqlite3") as store:
            original = StreamProcessor(10.0, store=store)
            first = [record_to_line(r) for r in _run(original, events)]
            assert json.loads(first[-1])["late"] == 3
            replayed = StreamProcessor(10.0)
            second = [record_to_line(r)
                      for r in _run(replayed,
                                    store_source(store, original.run_id))]
            assert second == first

    def test_events_after_finish_are_stored_by_the_next_finish(
            self, tmp_path):
        events = _trace()
        with RunStore(tmp_path / "runs.sqlite3") as store:
            processor = StreamProcessor(10.0, store=store)
            _run(processor, events)
            processor.feed(events[1])  # late: its window is closed
            processor.finish()
            replayed = list(store_source(store, processor.run_id))
            assert replayed == events + [events[1]]
            names = [s["name"] for s in store.spans(processor.run_id)]
            assert names[-1] == "stream:events"

    def test_worker_ids_past_64_bits_store_and_replay(self, tmp_path):
        # stdlib json (the CLI's reader) parses any integer; the store
        # must keep such an id rather than fail the window row.
        events = [parse_event_line(json.dumps(
            {**event_to_dict(e), "worker": 10 ** 20 + e.worker}
            if e.worker is not None else event_to_dict(e)))
            for e in _trace(profile=Profile([1.0]))]
        with RunStore(tmp_path / "runs.sqlite3") as store:
            original = StreamProcessor(10.0, store=store)
            first = [record_to_line(r) for r in _run(original, events)]
            assert str(10 ** 20) in first[0]
            replayed = StreamProcessor(10.0)
            second = [record_to_line(r)
                      for r in _run(replayed,
                                    store_source(store, original.run_id))]
        assert second == first

    def test_run_row_written_before_window_rows_still_replays(
            self, tmp_path):
        events = _trace(windows=4, drift_worker=1, drift_factor=2.0,
                        drift_window=2)
        expected = [record_to_line(r)
                    for r in _run(StreamProcessor(10.0), events)]
        with RunStore(tmp_path / "runs.sqlite3") as store:
            run_id = store.record_run(
                kind="stream", label="old", status="ok",
                extra={"window": 10.0, "events": [event_to_dict(e)
                                                  for e in events],
                       "events_truncated": False})
            replayed = [record_to_line(r)
                        for r in _run(StreamProcessor(10.0),
                                      store_source(store, run_id))]
        assert replayed == expected


class TestBoundedSession:
    def test_long_run_holds_no_history(self):
        # 8 workers, one slowing 1.5x at window 500: by window 1,000 the
        # session holds its cluster, its fit and the drift phases, and
        # 3,000 more windows of the same drift must not add to that.
        events = list(synthetic_trace(
            profile=[1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3],
            windows=4_001, drift_worker=2, drift_factor=1.5,
            drift_window=500))
        cut = next(i for i, e in enumerate(events) if e.time >= 10_000.0)
        end = next(i for i, e in enumerate(events) if e.time >= 40_000.0)
        processor = StreamProcessor(10.0)
        for event in events[:cut + 1]:
            processor.feed(event)
        assert processor.windows.windows_closed == 1_000
        phases = processor.calibrator.speed_timelines()[2].slowdowns
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for event in events[cut + 1:end + 1]:
                processor.feed(event)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert processor.windows.windows_closed == 4_000
        assert grown < 1 << 20, f"session grew {grown} bytes"
        # One entry per drift phase: the steady drift only extended the
        # last phase.
        timelines = processor.calibrator.speed_timelines()
        assert list(timelines) == [2]
        grown_phases = timelines[2].slowdowns
        assert grown_phases[:-1] == phases[:-1]
        assert grown_phases[-1][0] == phases[-1][0]
        assert grown_phases[-1][1] == 40_000.0
        # No store: the processor keeps no event list at all.
        assert not any(isinstance(value, list) and value
                       for value in vars(processor).values())


class TestStateView:
    def test_state_tracks_progress_and_survives_finish(self):
        processor = StreamProcessor(10.0, params=ModelParams(
            tau=1e-4, pi=1e-3, delta=0.5))
        view = processor.state_view()
        assert view["current_window"] is None
        assert view["last_window"] is None
        records = _run(processor, _trace())
        view = processor.state_view()
        assert view["windows_closed"] == records[-1]["windows"]
        assert view["last_window"] is None  # summary record has no window
        assert view["calibrating"] is True
        assert set(view["workers"]) == {"0", "1", "2"}

    def test_feed_accepts_parsed_lines(self):
        processor = StreamProcessor(10.0)
        line = ('{"type": "worker_joined", "time": 0.0, "worker": 0, '
                '"rho": 1.0}')
        assert processor.feed(parse_event_line(line)) == []
        assert processor.state_view()["buffered_events"] == 1

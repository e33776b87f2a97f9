"""Event schema, parser, and positional-error-contract tests."""

import io
import json

import pytest

from repro.errors import StreamError, StreamEventError
from repro.stream import (EVENT_TYPES, StreamEvent, canonical_key,
                          event_from_dict, event_to_dict, event_to_line,
                          parse_event_line, read_events, store_source)


class TestEventFromDict:
    def test_task_completed_full_milestones(self):
        event = event_from_dict({
            "type": "task_completed", "time": 9.0, "worker": 2, "work": 4.0,
            "sent": 0.0, "arrived": 0.5, "completed": 8.0,
            "result_started": 8.5})
        assert event.worker == 2
        assert event.work == 4.0
        assert event.arrived == 0.5

    def test_topology_sorted_pairs(self):
        event = event_from_dict({
            "type": "topology", "time": 0.0,
            "workers": {"3": 0.25, "1": 0.5, "0": 1.0}})
        assert event.workers == ((0, 1.0), (1, 0.5), (3, 0.25))

    def test_worker_joined_default_rho(self):
        event = event_from_dict(
            {"type": "worker_joined", "time": 1.0, "worker": 5})
        assert event.rho == 1.0

    @pytest.mark.parametrize("obj, field", [
        ({"type": "nope", "time": 0.0}, "type"),
        ({"type": "task_completed", "worker": 0, "work": 1.0}, "type"),
        ({"type": "task_completed", "time": 1.0, "worker": 0}, "work"),
        ({"type": "task_completed", "time": 1.0, "worker": 0,
          "work": -1.0}, "work"),
        ({"type": "task_completed", "time": 1.0, "worker": 0,
          "work": float("nan")}, "work"),
        ({"type": "speed_observed", "time": 1.0, "worker": 0}, "rho"),
        ({"type": "speed_observed", "time": 1.0, "worker": 0,
          "rho": 0.0}, "rho"),
        ({"type": "worker_left", "time": 1.0, "worker": -3}, "worker"),
        ({"type": "worker_left", "time": 1.0, "worker": True}, "worker"),
        ({"type": "topology", "time": 0.0}, "workers"),
        ({"type": "topology", "time": 0.0, "workers": {"x": 1.0}},
         "workers"),
        ({"type": ["task_completed"], "time": 0.0}, "type"),
        # The calibrator sums w² and w × duration: neither may overflow.
        ({"type": "task_completed", "time": 1.0, "worker": 0,
          "work": 1e200}, "work"),
        ({"type": "task_completed", "time": 1e300, "worker": 0,
          "work": 1e10, "sent": -1e300}, "work"),
    ])
    def test_defects_name_their_field(self, obj, field):
        with pytest.raises(StreamEventError) as excinfo:
            event_from_dict(obj)
        assert excinfo.value.field == field

    def test_reversed_milestones_rejected(self):
        with pytest.raises(StreamEventError, match="precedes"):
            event_from_dict({"type": "task_completed", "time": 9.0,
                             "worker": 0, "work": 1.0, "sent": 5.0,
                             "arrived": 2.0})

    def test_completion_before_result_start_rejected(self):
        # The event time itself is the final milestone.
        with pytest.raises(StreamEventError, match="'time'"):
            event_from_dict({"type": "task_completed", "time": 1.0,
                             "worker": 0, "work": 1.0,
                             "result_started": 2.0})


class TestParseEventLine:
    def test_invalid_json_reports_line_and_char(self):
        with pytest.raises(StreamEventError, match=r"line 7, at char 0"):
            parse_event_line("not json", line_number=7)

    def test_json_error_offset_points_at_defect(self):
        line = '{"type": "topology", "time": }'
        with pytest.raises(StreamEventError) as excinfo:
            parse_event_line(line, line_number=1)
        assert f"at char {line.index('}')}" in str(excinfo.value)

    def test_field_error_offset_points_at_field(self):
        line = '{"type": "task_completed", "time": 1.0, "worker": 0, "work": -2}'
        with pytest.raises(StreamEventError) as excinfo:
            parse_event_line(line, line_number=3)
        message = str(excinfo.value)
        assert "line 3" in message
        assert f"at char {line.index(chr(34) + 'work' + chr(34))}" in message

    def test_valid_line_round_trips(self):
        event = StreamEvent(time=2.0, type="speed_observed", worker=1,
                            rho=0.5)
        assert parse_event_line(event_to_line(event)) == event


class TestReadEvents:
    def test_blank_lines_skipped_but_counted(self):
        lines = ['{"type": "worker_joined", "time": 0.0, "worker": 0}',
                 "", "   ", "garbage"]
        events = read_events(lines)
        assert next(events).type == "worker_joined"
        with pytest.raises(StreamEventError, match="line 4"):
            next(events)

    def test_start_line_offsets_numbering(self):
        with pytest.raises(StreamEventError, match="line 11"):
            list(read_events(["{"], start_line=11))


class TestCanonicalKey:
    def test_type_rank_breaks_time_ties(self):
        completed = StreamEvent(time=5.0, type="task_completed", worker=0,
                                work=1.0)
        joined = StreamEvent(time=5.0, type="worker_joined", worker=9,
                             rho=1.0)
        assert canonical_key(joined) < canonical_key(completed)

    def test_order_matches_declared_event_types(self):
        assert EVENT_TYPES[0] == "topology"
        assert EVENT_TYPES[-1] == "task_completed"

    def test_round_trip_preserves_canonical_line(self):
        event = event_from_dict({"type": "task_completed", "time": 3.0,
                                 "worker": 1, "work": 2.0})
        again = event_from_dict(json.loads(event_to_line(event)))
        assert event_to_line(again) == event_to_line(event)
        assert event_to_dict(again) == event_to_dict(event)


class TestStoreSource:
    def test_missing_run_raises_stream_error(self, tmp_path):
        from repro.obs import RunStore
        store = RunStore(tmp_path / "runs.sqlite3")
        with pytest.raises(StreamError, match="no stream run"):
            list(store_source(store))
        with pytest.raises(StreamError, match="no stored stream run"):
            list(store_source(store, "deadbeef"))
        store.close()

    def test_truncated_log_refuses_replay(self, tmp_path):
        # A run row from before events rode with the window rows, whose
        # log was dropped at the old 50,000-event cap.
        from repro.obs import RunStore
        store = RunStore(tmp_path / "runs.sqlite3")
        store.record_run(kind="stream", label="big", status="ok",
                         extra={"events": None, "events_truncated": True})
        with pytest.raises(StreamError, match="no replayable events"):
            list(store_source(store))
        store.close()

"""WindowManager lifecycle and ClusterState membership tests."""

import pytest

from repro.errors import StreamError, StreamEventError
from repro.stream import ClusterState, StreamEvent, WindowManager


def _tick(time, worker=0):
    return StreamEvent(time=time, type="task_completed", worker=worker,
                       work=1.0)


class TestWindowLifecycle:
    def test_first_event_opens_its_window(self):
        manager = WindowManager(10.0)
        assert manager.current_index is None
        assert manager.add(_tick(34.0)) == []
        assert manager.current_index == 3
        assert manager.buffered == 1

    def test_later_window_event_closes_current(self):
        manager = WindowManager(10.0)
        manager.add(_tick(1.0))
        manager.add(_tick(2.0))
        closed = manager.add(_tick(12.0))
        assert len(closed) == 1
        window = closed[0]
        assert (window.index, window.start, window.end) == (0, 0.0, 10.0)
        assert [e.time for e in window.events] == [1.0, 2.0]
        assert manager.current_index == 1

    def test_gap_jump_creates_no_empty_windows(self):
        manager = WindowManager(10.0)
        manager.add(_tick(5.0))
        closed = manager.add(_tick(95.0))
        assert [w.index for w in closed] == [0]
        assert manager.current_index == 9
        assert manager.windows_closed == 1

    def test_late_event_is_counted_never_admitted(self):
        manager = WindowManager(10.0)
        manager.add(_tick(5.0))
        manager.add(_tick(15.0))          # closes window 0
        assert manager.add(_tick(3.0)) == []   # late: window 0 is closed
        assert manager.late_total == 1
        window = manager.flush()
        assert window.index == 1
        assert window.late == 1
        assert all(e.time >= 10.0 for e in window.events)

    def test_flush_closes_trailing_partial_window(self):
        manager = WindowManager(10.0)
        manager.add(_tick(5.0))
        window = manager.flush()
        assert window.index == 0
        assert manager.flush() is None
        # Post-flush, events inside the flushed window are late.
        assert manager.add(_tick(7.0)) == []
        assert manager.late_total == 1

    def test_events_sorted_canonically_at_close(self):
        manager = WindowManager(10.0)
        manager.add(_tick(4.0, worker=2))
        manager.add(StreamEvent(time=4.0, type="worker_joined", worker=7,
                                rho=1.0))
        manager.add(_tick(4.0, worker=1))
        manager.add(_tick(1.0, worker=9))
        window = manager.flush()
        labels = [(e.time, e.type, e.worker) for e in window.events]
        assert labels == [(1.0, "task_completed", 9),
                          (4.0, "worker_joined", 7),
                          (4.0, "task_completed", 1),
                          (4.0, "task_completed", 2)]

    def test_cumulative_history(self):
        manager = WindowManager(5.0)
        for t in (1.0, 6.0, 0.5, 11.0, 12.0):
            manager.add(_tick(t))
        manager.flush()
        assert manager.events_total == 5
        assert manager.windows_closed == 3
        assert manager.late_total == 1

    def test_origin_shifts_the_grid(self):
        manager = WindowManager(10.0, origin=5.0)
        assert manager.index_of(4.9) == -1
        assert manager.index_of(5.0) == 0
        assert manager.bounds(0) == (5.0, 15.0)

    @pytest.mark.parametrize("size, time", [
        (1e-320, 1e300),     # the index overflows a double
        (1.0, 1e19),         # ... or a 64-bit integer
        (1e308, 1.7e308),    # the window's end overflows
    ])
    def test_time_without_a_finite_window_is_refused(self, size, time):
        manager = WindowManager(size)
        with pytest.raises(StreamEventError, match="too far") as excinfo:
            manager.add(_tick(time))
        assert excinfo.value.field == "time"
        assert manager.events_total == 0
        assert manager.current_index is None

    @pytest.mark.parametrize("size", [0.0, -1.0, float("nan"),
                                      float("inf")])
    def test_bad_size_rejected(self, size):
        with pytest.raises(StreamError, match="window size"):
            WindowManager(size)


class TestClusterState:
    def test_topology_replaces_wholesale(self):
        state = ClusterState()
        state.apply(StreamEvent(time=0.0, type="worker_joined", worker=9,
                                rho=2.0))
        state.apply(StreamEvent(time=1.0, type="topology",
                                workers=((0, 1.0), (1, 0.5))))
        assert state.workers == {0: 1.0, 1: 0.5}

    def test_join_leave_speed(self):
        state = ClusterState()
        state.apply(StreamEvent(time=0.0, type="worker_joined", worker=1,
                                rho=0.5))
        state.apply(StreamEvent(time=1.0, type="worker_joined", worker=0,
                                rho=1.0))
        state.apply(StreamEvent(time=2.0, type="speed_observed", worker=1,
                                rho=0.75))
        state.apply(StreamEvent(time=3.0, type="worker_left", worker=0))
        assert state.workers == {1: 0.75}
        assert state.n == 1

    def test_completions_do_not_touch_membership(self):
        state = ClusterState()
        state.apply(_tick(1.0, worker=4))
        assert state.workers == {}

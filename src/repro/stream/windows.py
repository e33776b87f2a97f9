"""Event-time windowing and the tracked worker set.

:class:`WindowManager` cuts the event stream into fixed-duration
windows keyed by *event* time — the opendt sim-worker lifecycle:

* the first event creates the window its timestamp falls in;
* an event past the current window's end **closes** it (watermark by
  arrival: the stream is assumed roughly ordered, so a later-window
  event is the signal that the earlier window is complete);
* events older than the current window are *late*: they are counted,
  but a closed window is **never reopened** — its summary is final;
* cumulative history (total events, windows closed, late arrivals)
  is kept across the whole stream.

On close, a window's events are sorted by
:func:`~repro.stream.events.canonical_key`, so every consumer sees one
canonical order no matter how simultaneous events interleaved on the
wire — the property that makes window summaries bit-identical under
within-window shuffling (pinned by the hypothesis suite).

:class:`ClusterState` folds membership events (``topology``,
``worker_joined``/``worker_left``, ``speed_observed``) into the current
worker set; the per-window re-evaluation runs on whatever the set is
when the window closes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import StreamError, StreamEventError
from repro.stream.events import StreamEvent, canonical_key

__all__ = ["Window", "WindowManager", "ClusterState"]


@dataclass(frozen=True)
class Window:
    """One closed window: ``[start, end)`` plus its canonical events."""

    index: int
    start: float
    end: float
    #: The window's events in canonical order (time, type rank, worker).
    events: tuple[StreamEvent, ...]
    #: Late arrivals observed *while this window was current* (they
    #: belonged to already-closed windows and were not admitted).
    late: int


class WindowManager:
    """Fixed-duration event-time windows with a late-close lifecycle."""

    def __init__(self, size: float, *, origin: float = 0.0) -> None:
        size = float(size)
        if not (size > 0.0) or not math.isfinite(size):
            raise StreamError(
                f"window size must be positive and finite, got {size!r}")
        if not math.isfinite(origin):
            raise StreamError(f"window origin must be finite, got {origin!r}")
        self.size = size
        self.origin = float(origin)
        self._current: int | None = None
        self._buffer: list[StreamEvent] = []
        self._late_current = 0
        #: Cumulative history, kept across the whole stream.
        self.events_total = 0
        self.windows_closed = 0
        self.late_total = 0

    # -- geometry ------------------------------------------------------
    def index_of(self, time: float) -> int:
        """The window index event time ``time`` falls in; a
        :class:`StreamEventError` when that window has no finite bounds
        or no index a 64-bit integer (a JSON record's) holds."""
        offset = (time - self.origin) / self.size
        if abs(offset) < 2.0 ** 63:  # False for inf and NaN too
            index = math.floor(offset)
            # The division can round across a window edge: settle the
            # index against the bounds themselves, so membership is exact.
            start, end = self.bounds(index)
            index += (time >= end) - (time < start)
            if all(map(math.isfinite, self.bounds(index))):
                return index
        raise StreamEventError(
            f"event time {time!r} is too far from the window origin "
            f"{self.origin!r} for windows of {self.size!r}", field="time")

    def bounds(self, index: int) -> tuple[float, float]:
        """``[start, end)`` of window ``index``; windows tile exactly."""
        return (self.origin + index * self.size,
                self.origin + (index + 1) * self.size)

    @property
    def current_index(self) -> int | None:
        """The open window's index, or None before the first event."""
        return self._current

    @property
    def buffered(self) -> int:
        """Events waiting in the open window."""
        return len(self._buffer)

    # -- lifecycle -----------------------------------------------------
    def add(self, event: StreamEvent) -> list[Window]:
        """Admit one event; returns the windows it closed (0 or 1).

        A late event (older than the open window) closes nothing and is
        *not* admitted anywhere: closed windows stay closed.
        """
        index = self.index_of(event.time)
        self.events_total += 1
        if self._current is None:
            self._current = index
        if index < self._current:
            self.late_total += 1
            self._late_current += 1
            return []
        closed: list[Window] = []
        if index > self._current:
            closed.append(self._close())
            self._current = index
        self._buffer.append(event)
        return closed

    def _close(self) -> Window:
        assert self._current is not None
        start, end = self.bounds(self._current)
        window = Window(index=self._current, start=start, end=end,
                        events=tuple(sorted(self._buffer, key=canonical_key)),
                        late=self._late_current)
        self._buffer = []
        self._late_current = 0
        self.windows_closed += 1
        return window

    def flush(self) -> Window | None:
        """Close the trailing partial window at end of stream, if any.

        After a flush the closed window stays closed: any further event
        with a timestamp inside it counts as late.
        """
        if self._current is None or not self._buffer:
            return None
        window = self._close()
        self._current = window.index + 1
        return window


class ClusterState:
    """The worker set as the event stream describes it.

    ``topology`` replaces the set wholesale; ``worker_joined`` adds (or
    re-declares), ``worker_left`` removes, ``speed_observed`` updates a
    worker's declared ρ (observing a speed implies the worker exists).
    ``task_completed`` changes nothing — completions feed the
    calibrator, not the membership.
    """

    def __init__(self) -> None:
        self._workers: dict[int, float] = {}

    def apply(self, event: StreamEvent) -> None:
        if event.type == "topology":
            self._workers = dict(event.workers)
        elif event.type == "worker_joined":
            self._workers[event.worker] = (event.rho if event.rho is not None
                                           else 1.0)
        elif event.type == "worker_left":
            self._workers.pop(event.worker, None)
        elif event.type == "speed_observed":
            self._workers[event.worker] = event.rho

    @property
    def workers(self) -> dict[int, float]:
        """Worker id → declared ρ, id-sorted (a fresh dict)."""
        return {wid: self._workers[wid] for wid in sorted(self._workers)}

    @property
    def n(self) -> int:
        return len(self._workers)

"""The stream's line-delimited JSON event schema, parser, and sources.

Every event is one JSON object per line with a ``type`` and an event
``time`` (the instant the thing *happened* in the cluster's clock, not
the instant the line arrived — the stream layer does event-time
windowing).  Five types:

``task_completed``
    The server learned that ``worker`` finished a quantum of ``work``
    units at ``time``.  Optional milestone fields — ``sent``,
    ``arrived``, ``completed``, ``result_started`` — carry the
    quantum's closed-form timeline (send-prep start, bench arrival,
    busy end, result-transit start); the calibrator fits (τ, π, δ, ρ)
    from whichever milestone pairs are present.
``worker_joined`` / ``worker_left``
    Membership changes; ``worker_joined`` may declare a ``rho``.
``speed_observed``
    A direct observation of ``worker``'s current ρ (an external probe).
``topology``
    A full snapshot: ``workers`` maps worker id → declared ρ and
    replaces the tracked worker set wholesale.

Sources are plain iterators of :class:`StreamEvent`: a file, stdin, or
a replay of the events a previous ``stream`` run persisted to the
PR-6 run-history store.  No Kafka, no sockets — stdlib only.

Parse errors raise :class:`~repro.errors.StreamEventError` naming the
line number *and* the character offset of the defect inside the line —
the same positional contract ``parse_faults`` gives fault clauses —
and the CLI maps them to exit code 2.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import IO, Any, Iterable, Iterator

from repro.errors import StreamError, StreamEventError

__all__ = ["StreamEvent", "EVENT_TYPES", "event_from_dict", "event_to_dict",
           "event_to_line", "parse_event_line", "read_events", "file_source",
           "stdin_source", "store_source", "canonical_key"]

#: Recognised event types, in the canonical tie-break order used when
#: sorting simultaneous events (membership before observations before
#: completions, so a window replays identically however it was shuffled).
EVENT_TYPES = ("topology", "worker_joined", "worker_left",
               "speed_observed", "task_completed")

_TYPE_ORDER = {name: i for i, name in enumerate(EVENT_TYPES)}


@dataclass(frozen=True)
class StreamEvent:
    """One validated stream event (see the module docstring)."""

    time: float
    type: str
    worker: int | None = None
    rho: float | None = None
    work: float | None = None
    sent: float | None = None
    arrived: float | None = None
    completed: float | None = None
    result_started: float | None = None
    #: ``topology`` only: the full worker set as (id, ρ) pairs, id-sorted.
    workers: tuple[tuple[int, float], ...] = ()


def _finite(value: Any, field: str, *, minimum: float | None = None,
            strict: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise StreamEventError(f"field {field!r} must be a number, "
                               f"got {value!r}", field=field)
    try:
        value = float(value)
    except OverflowError:  # an int too large for a double
        value = math.inf
    if not math.isfinite(value):
        raise StreamEventError(f"field {field!r} must be finite, "
                               f"got {value!r}", field=field)
    if minimum is not None:
        if strict and value <= minimum:
            raise StreamEventError(f"field {field!r} must be > {minimum:g}, "
                                   f"got {value!r}", field=field)
        if not strict and value < minimum:
            raise StreamEventError(f"field {field!r} must be >= {minimum:g}, "
                                   f"got {value!r}", field=field)
    return value


def _worker_id(value: Any, field: str = "worker") -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise StreamEventError(f"field {field!r} must be an integer worker "
                               f"id, got {value!r}", field=field)
    if value < 0:
        raise StreamEventError(f"field {field!r} must be >= 0, "
                               f"got {value!r}", field=field)
    return value


def event_from_dict(obj: Any) -> StreamEvent:
    """Validate one decoded JSON object into a :class:`StreamEvent`.

    Raises :class:`StreamEventError` (with the offending field attached)
    on any defect; :func:`parse_event_line` wraps those with the line
    number and character offset.
    """
    if not isinstance(obj, dict):
        raise StreamEventError(
            f"event must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("type")
    if not isinstance(kind, str) or kind not in _TYPE_ORDER:
        raise StreamEventError(
            f"unknown event type {kind!r} (known: {', '.join(EVENT_TYPES)})",
            field="type")
    if "time" not in obj:
        raise StreamEventError("event is missing the 'time' field",
                               field="type")
    time = _finite(obj["time"], "time")

    worker = rho = work = None
    sent = arrived = completed = result_started = None
    workers: tuple[tuple[int, float], ...] = ()

    if kind == "topology":
        table = obj.get("workers")
        if not isinstance(table, dict):
            raise StreamEventError(
                "topology event needs a 'workers' object mapping worker "
                "id -> rho", field="workers")
        pairs = []
        for key, value in table.items():
            try:
                wid = int(key)
            except (TypeError, ValueError):
                raise StreamEventError(
                    f"bad worker id {key!r} in 'workers'",
                    field="workers") from None
            pairs.append((_worker_id(wid, "workers"),
                          _finite(value, "workers", minimum=0.0,
                                  strict=True)))
        workers = tuple(sorted(pairs))
        if len({wid for wid, _ in workers}) != len(workers):
            raise StreamEventError("duplicate worker id in 'workers'",
                                   field="workers")
    else:
        worker = _worker_id(obj.get("worker"))
        if kind in ("worker_joined", "speed_observed"):
            raw = obj.get("rho", 1.0 if kind == "worker_joined" else None)
            if raw is None:
                raise StreamEventError(
                    "speed_observed event needs a 'rho' field", field="rho")
            rho = _finite(raw, "rho", minimum=0.0, strict=True)
        if kind == "task_completed":
            if "work" not in obj:
                raise StreamEventError(
                    "task_completed event needs a 'work' field", field="work")
            work = _finite(obj["work"], "work", minimum=0.0, strict=True)
            for field in ("sent", "arrived", "completed", "result_started"):
                if obj.get(field) is not None:
                    value = _finite(obj[field], field)
                    if field == "sent":
                        sent = value
                    elif field == "arrived":
                        arrived = value
                    elif field == "completed":
                        completed = value
                    else:
                        result_started = value
            # Milestones must run forward; a reversed pair would make the
            # calibrator fit a negative duration.
            chain = [(name, value) for name, value in
                     (("sent", sent), ("arrived", arrived),
                      ("completed", completed),
                      ("result_started", result_started), ("time", time))
                     if value is not None]
            for (a_name, a), (b_name, b) in zip(chain, chain[1:]):
                if b < a:
                    raise StreamEventError(
                        f"milestone {b_name!r} ({b!r}) precedes "
                        f"{a_name!r} ({a!r})", field=b_name)
            # The calibrator sums w² and w × duration; one term that
            # overflows would leave every later fit infinite.
            if not (math.isfinite(work * work)
                    and math.isfinite(work * (time - chain[0][1]))):
                raise StreamEventError(
                    f"field 'work' ({work!r}) times its milestone span "
                    f"overflows a double", field="work")
    return StreamEvent(time=time, type=kind, worker=worker, rho=rho,
                       work=work, sent=sent, arrived=arrived,
                       completed=completed, result_started=result_started,
                       workers=workers)


def event_to_dict(event: StreamEvent) -> dict[str, Any]:
    """The canonical JSON-able form (None fields omitted, ids as strings)."""
    out: dict[str, Any] = {"type": event.type, "time": event.time}
    for field in ("worker", "rho", "work", "sent", "arrived", "completed",
                  "result_started"):
        value = getattr(event, field)
        if value is not None:
            out[field] = value
    if event.type == "topology":
        out["workers"] = {str(wid): rho for wid, rho in event.workers}
    return out


def event_to_line(event: StreamEvent) -> str:
    """One canonical JSONL line (sorted keys, compact separators)."""
    return json.dumps(event_to_dict(event), sort_keys=True,
                      separators=(",", ":"))


def canonical_key(event: StreamEvent) -> tuple:
    """Total order on events: time, then type rank, then content.

    Sorting a window's events by this key before applying them makes
    window summaries independent of within-window arrival order — the
    determinism property the hypothesis suite pins.
    """
    return (event.time, _TYPE_ORDER[event.type],
            -1 if event.worker is None else event.worker,
            event_to_line(event))


def parse_event_line(line: str, *, line_number: int = 1) -> StreamEvent:
    """Parse one JSONL line into a validated event.

    Raises :class:`StreamEventError` whose message names the line number
    and the character offset of the defect within the line.
    """
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise StreamEventError(
            f"bad stream event (line {line_number}, at char {exc.pos} of "
            f"the line): invalid JSON: {exc.msg}") from None
    try:
        return event_from_dict(obj)
    except StreamEventError as exc:
        offset = 0
        if exc.field is not None:
            offset = max(0, line.find(f'"{exc.field}"'))
        raise StreamEventError(
            f"bad stream event (line {line_number}, at char {offset} of "
            f"the line): {exc}") from None


def read_events(lines: Iterable[str], *,
                start_line: int = 1) -> Iterator[StreamEvent]:
    """Parse an iterable of JSONL lines, skipping blank lines.

    Line numbers in error messages count from ``start_line`` and include
    the skipped blanks, so they match the source file.
    """
    for line_number, line in enumerate(lines, start=start_line):
        if not line.strip():
            continue
        yield parse_event_line(line, line_number=line_number)


def file_source(path: str) -> Iterator[StreamEvent]:
    """Events from a JSONL file (one event per line).

    The file is opened eagerly so a missing path raises here, at
    acquisition time, not at first iteration deep inside a processor.
    """
    fh = open(path, "r", encoding="utf-8")

    def _events() -> Iterator[StreamEvent]:
        with fh:
            yield from read_events(fh)

    return _events()


def stdin_source(stream: IO[str] | None = None) -> Iterator[StreamEvent]:
    """Events from stdin (or any text stream), line by line."""
    yield from read_events(stream if stream is not None else sys.stdin)


#: The stream span attribute listing the events that arrived since the
#: previous span row, in arrival order.
STORED_EVENTS_KEY = "arrivals"


def store_source(store: Any, run_id: str | None = None) -> Iterator[StreamEvent]:
    """Replay the events a previous ``stream`` run persisted to the store.

    ``store`` is a :class:`repro.obs.store.RunStore`; ``run_id`` may be a
    prefix, or None for the most recent ``stream`` run.  The events are
    its span rows' :data:`STORED_EVENTS_KEY` lists in row order (or, for
    older runs, the run row's ``extra.events``).  Raises
    :class:`StreamError` when no matching run recorded events — eagerly,
    so an unknown run fails at acquisition time, not at first iteration.
    """
    run = (store.get_run(run_id) if run_id is not None
           else store.latest(kind="stream"))
    if run is None:
        raise StreamError(
            f"no stored stream run matching {run_id!r}" if run_id
            else "no stream run in the run-history store")
    events = ([obj for span in store.spans(run["run_id"])
               for obj in span["attrs"].get(STORED_EVENTS_KEY, ())]
              or (run.get("extra") or {}).get("events"))
    if not events:
        raise StreamError(
            f"stored run {run['run_id'][:12]} has no replayable events")

    def _events() -> Iterator[StreamEvent]:
        for index, obj in enumerate(events):
            try:
                yield event_from_dict(obj)
            except StreamEventError as exc:
                raise StreamEventError(
                    f"bad stored event {index} of run {run['run_id'][:12]}: "
                    f"{exc}") from None

    return _events()

"""Persistent run-history store: every run and request, queryable later.

The rest of the observability layer is ephemeral by design — a
:class:`~repro.obs.metrics.MetricsRegistry` and a
:class:`~repro.obs.tracing.Tracer` live and die with their process.
This module is the durable tier: a stdlib-``sqlite3`` database (WAL
mode, safe under concurrent writers) holding one row per *run* — an
experiment invocation, a ``run all`` batch, a service request — plus
the run's span records, metrics-registry dump, cache outcome and fault
counters.

Two tables:

``runs``
    One row per recorded run: identity (``run_id``, ``trace_id``, the
    PR-2 content-addressed ``cache_key`` where applicable), provenance
    (``kind``, ``label``, ``status``), timing
    (``started_at`` wall clock, ``wall_seconds``), and two JSON
    documents — the metrics-registry :meth:`~repro.obs.metrics.
    MetricsRegistry.dump` and a free-form ``extra`` block (shard
    layout, cache hit/miss counts, fault counters).
``spans``
    The run's trace records, exactly as the tracer emitted them
    (``type``/``name``/``ts``/``dur``/``depth``/``attrs`` plus the
    ``trace_id``/``span_id``/``parent_id`` linkage), so a stored run
    can be re-exported as Perfetto JSON or re-analysed with
    ``repro-hetero obs top`` long after the process exited.

Durability contract: the store must never break the run it is
recording.  Every write path catches ``sqlite3.Error`` and degrades to
"not recorded" — losing telemetry is acceptable, losing results is not.
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Iterable

import orjson

from repro.obs.tracing import new_span_id

__all__ = ["RunStore", "default_store_path"]

_SCHEMA_VERSION = 1

#: The connection's page cache, in KiB (sqlite's default is 2,000 KiB).
#: Writes are appends and reads are indexed lookups, so a small cache
#: keeps a long-running server's resident memory flat, where the default
#: grows it by up to 2 MB; a 55-row batch write takes ~6% longer.
_PAGE_CACHE_KIB = 256

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id         TEXT PRIMARY KEY,
    kind           TEXT NOT NULL,
    label          TEXT NOT NULL DEFAULT '',
    trace_id       TEXT,
    cache_key      TEXT,
    engine         TEXT,  -- unwritten; old and new stores share one schema
    status         TEXT NOT NULL DEFAULT 'ok',
    started_at     REAL NOT NULL,
    wall_seconds   REAL,
    metrics        TEXT,
    extra          TEXT,
    schema_version INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS runs_started_idx ON runs (started_at);
CREATE INDEX IF NOT EXISTS runs_kind_idx    ON runs (kind, started_at);
CREATE INDEX IF NOT EXISTS runs_trace_idx   ON runs (trace_id);
CREATE TABLE IF NOT EXISTS spans (
    run_id    TEXT NOT NULL,
    trace_id  TEXT,
    span_id   TEXT,
    parent_id TEXT,
    type      TEXT NOT NULL,
    name      TEXT NOT NULL,
    ts        REAL NOT NULL,
    dur       REAL,
    depth     INTEGER NOT NULL DEFAULT 0,
    attrs     TEXT
);
CREATE INDEX IF NOT EXISTS spans_run_idx   ON spans (run_id);
CREATE INDEX IF NOT EXISTS spans_trace_idx ON spans (trace_id);
"""


def default_store_path() -> Path:
    """Where the run history lives unless overridden.

    ``$REPRO_OBS_DIR`` wins; otherwise the platform state home
    (``$XDG_STATE_HOME`` or ``~/.local/state``) under ``repro-hetero``.
    """
    override = os.environ.get("REPRO_OBS_DIR")
    if override:
        return Path(override) / "runs.sqlite3"
    xdg = os.environ.get("XDG_STATE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".local" / "state"
    return base / "repro-hetero" / "runs.sqlite3"


def _json_or_none(document: Any) -> str | None:
    """Compact JSON, or None.  orjson first (it writes NaN and ±inf as
    ``null``); stdlib json for what orjson refuses — non-string keys,
    integers past 64 bits, numpy scalars and other types through
    ``str``."""
    if document is None:
        return None
    try:
        return orjson.dumps(document).decode()
    except TypeError:
        pass
    try:
        return json.dumps(document, separators=(",", ":"), default=str)
    except (TypeError, ValueError):
        return None


def _run_row(*, kind: str, label: str = "", trace_id: str | None = None,
             cache_key: str | None = None, status: str = "ok",
             started_at: float | None = None,
             wall_seconds: float | None = None, metrics: dict | None = None,
             extra: dict | None = None, run_id: str | None = None) -> tuple:
    """One ``runs`` row, in ``_INSERT_RUN``'s column order."""
    return (run_id or new_span_id(), kind, label, trace_id, cache_key, status,
            started_at if started_at is not None else time.time(),
            wall_seconds, _json_or_none(metrics), _json_or_none(extra),
            _SCHEMA_VERSION)


_INSERT_RUN = ("INSERT OR REPLACE INTO runs (run_id, kind, label, trace_id, "
               "cache_key, status, started_at, wall_seconds, metrics, extra, "
               "schema_version) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)")


def _loads_or_none(text: str | None) -> Any:
    if not text:
        return None
    try:
        return json.loads(text)
    except ValueError:
        return None


class RunStore:
    """A WAL-mode sqlite database of runs and their span records.

    One store object holds one connection, guarded by a lock so the
    service's event loop and its executor threads can share it; across
    *processes* each opens its own store on the same path and WAL
    journalling plus a generous busy timeout arbitrate the writers.
    """

    def __init__(self, path: str | Path | None = None, *,
                 timeout: float = 10.0) -> None:
        self.path = Path(path) if path is not None else default_store_path()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(str(self.path), timeout=timeout,
                                     check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(f"PRAGMA cache_size=-{_PAGE_CACHE_KIB}")
            self._conn.executescript(_SCHEMA)
            self._conn.commit()

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- writing -------------------------------------------------------
    def record_run(self, *, kind: str, label: str = "",
                   trace_id: str | None = None,
                   cache_key: str | None = None,
                   status: str = "ok",
                   started_at: float | None = None,
                   wall_seconds: float | None = None,
                   metrics: dict | None = None,
                   extra: dict | None = None,
                   spans: Iterable[dict] | None = None,
                   run_id: str | None = None) -> str | None:
        """Persist one run; returns its id, or None if the write failed.

        ``metrics`` is a :meth:`MetricsRegistry.dump` document;
        ``spans`` an iterable of tracer records; ``extra`` anything
        JSON-able (cache hits, shard layout, fault counters).
        ``cache_key`` is the PR-2 content-addressed result-cache key
        where one applies, so a stored run can be joined back to the
        cache entry it produced or reused.
        """
        row = _run_row(kind=kind, label=label, trace_id=trace_id,
                       cache_key=cache_key, status=status,
                       started_at=started_at, wall_seconds=wall_seconds,
                       metrics=metrics, extra=extra, run_id=run_id)
        if not self._insert_runs([row]):
            return None
        if spans:
            self.add_spans(row[0], spans, trace_id=trace_id)
        return row[0]

    def record_runs(self, runs: Iterable[dict[str, Any]]) -> int:
        """Persist many runs in one transaction; returns how many.

        Each item holds :meth:`record_run`'s keyword arguments other
        than ``spans``.  The write is all or nothing: 0 when it failed.
        """
        rows = [_run_row(**run) for run in runs]
        return len(rows) if rows and self._insert_runs(rows) else 0

    def _insert_runs(self, rows: list[tuple]) -> bool:
        """One ``executemany`` and one commit; False, with nothing
        written, if sqlite refused."""
        with self._lock:
            try:
                self._conn.executemany(_INSERT_RUN, rows)
                self._conn.commit()
            except sqlite3.Error:
                with contextlib.suppress(sqlite3.Error):
                    self._conn.rollback()
                return False
        return True

    def add_spans(self, run_id: str, records: Iterable[dict], *,
                  trace_id: str | None = None) -> int:
        """Append tracer records to a run; returns how many were stored."""
        rows = []
        for record in records:
            rows.append((
                run_id,
                record.get("trace_id", trace_id),
                record.get("span_id"),
                record.get("parent_id"),
                record.get("type", "span"),
                record.get("name", ""),
                float(record.get("ts", 0.0)),
                record.get("dur"),
                int(record.get("depth", 0)),
                _json_or_none(record.get("attrs")),
            ))
        if not rows:
            return 0
        try:
            with self._lock:
                self._conn.executemany(
                    "INSERT INTO spans (run_id, trace_id, span_id, "
                    "parent_id, type, name, ts, dur, depth, attrs) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)", rows)
                self._conn.commit()
        except sqlite3.Error:
            return 0
        return len(rows)

    # -- reading -------------------------------------------------------
    @staticmethod
    def _run_from_row(row: sqlite3.Row) -> dict[str, Any]:
        run = dict(row)
        run["metrics"] = _loads_or_none(run.get("metrics"))
        run["extra"] = _loads_or_none(run.get("extra"))
        run["started_iso"] = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(run["started_at"]))
        return run

    def runs(self, *, kind: str | None = None, limit: int = 50
             ) -> list[dict[str, Any]]:
        """The most recent runs, newest first."""
        query = "SELECT * FROM runs"
        args: list[Any] = []
        if kind is not None:
            query += " WHERE kind = ?"
            args.append(kind)
        query += " ORDER BY started_at DESC, run_id DESC LIMIT ?"
        args.append(int(limit))
        with self._lock:
            rows = self._conn.execute(query, args).fetchall()
        return [self._run_from_row(row) for row in rows]

    def get_run(self, run_id: str) -> dict[str, Any] | None:
        """One run by exact id — or unambiguous id prefix, for humans."""
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM runs WHERE run_id = ?", (run_id,)).fetchone()
            if row is None and run_id:
                matches = self._conn.execute(
                    "SELECT * FROM runs WHERE run_id LIKE ? LIMIT 2",
                    (run_id + "%",)).fetchall()
                row = matches[0] if len(matches) == 1 else None
        return self._run_from_row(row) if row is not None else None

    def latest(self, *, kind: str | None = None) -> dict[str, Any] | None:
        """The most recently started run (optionally of one kind)."""
        found = self.runs(kind=kind, limit=1)
        return found[0] if found else None

    def spans(self, run_id: str) -> list[dict[str, Any]]:
        """A run's trace records, reconstructed in emission order."""
        run = self.get_run(run_id)
        resolved = run["run_id"] if run is not None else run_id
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM spans WHERE run_id = ? ORDER BY rowid",
                (resolved,)).fetchall()
        return [self._span_from_row(row) for row in rows]

    def spans_for_trace(self, trace_id: str) -> list[dict[str, Any]]:
        """Every stored record carrying one trace id, across runs."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM spans WHERE trace_id = ? ORDER BY rowid",
                (trace_id,)).fetchall()
        return [self._span_from_row(row) for row in rows]

    @staticmethod
    def _span_from_row(row: sqlite3.Row) -> dict[str, Any]:
        record = {
            "type": row["type"], "name": row["name"], "ts": row["ts"],
            "depth": row["depth"], "attrs": _loads_or_none(row["attrs"]) or {},
            "trace_id": row["trace_id"], "parent_id": row["parent_id"],
        }
        if row["dur"] is not None:
            record["dur"] = row["dur"]
        if row["span_id"] is not None:
            record["span_id"] = row["span_id"]
        return record

    def summary(self) -> dict[str, Any]:
        """Store-level digest: totals by kind/status, newest run, size."""
        with self._lock:
            total = self._conn.execute(
                "SELECT COUNT(*) FROM runs").fetchone()[0]
            span_total = self._conn.execute(
                "SELECT COUNT(*) FROM spans").fetchone()[0]
            by_kind = dict(self._conn.execute(
                "SELECT kind, COUNT(*) FROM runs GROUP BY kind").fetchall())
            by_status = dict(self._conn.execute(
                "SELECT status, COUNT(*) FROM runs GROUP BY status"
            ).fetchall())
            newest = self._conn.execute(
                "SELECT run_id, kind, label, started_at FROM runs "
                "ORDER BY started_at DESC LIMIT 1").fetchone()
        try:
            size = self.path.stat().st_size
        except OSError:
            size = 0
        return {
            "path": str(self.path),
            "runs": int(total),
            "spans": int(span_total),
            "by_kind": {k: int(v) for k, v in by_kind.items()},
            "by_status": {k: int(v) for k, v in by_status.items()},
            "latest": dict(newest) if newest is not None else None,
            "db_bytes": int(size),
        }

    # -- retention -----------------------------------------------------
    def prune(self, *, max_runs: int | None = None,
              max_age_days: float | None = None) -> int:
        """Drop old runs (and their spans); returns how many were removed.

        ``max_runs`` keeps only the newest N; ``max_age_days`` drops
        anything started longer ago than that.  Both may be combined.
        """
        doomed: set[str] = set()
        with self._lock:
            if max_age_days is not None:
                cutoff = time.time() - float(max_age_days) * 86400.0
                doomed.update(run_id for (run_id,) in self._conn.execute(
                    "SELECT run_id FROM runs WHERE started_at < ?",
                    (cutoff,)))
            if max_runs is not None:
                doomed.update(run_id for (run_id,) in self._conn.execute(
                    "SELECT run_id FROM runs ORDER BY started_at DESC, "
                    "run_id DESC LIMIT -1 OFFSET ?", (int(max_runs),)))
            if doomed:
                marks = ",".join("?" for _ in doomed)
                ids = sorted(doomed)
                self._conn.execute(
                    f"DELETE FROM spans WHERE run_id IN ({marks})", ids)
                self._conn.execute(
                    f"DELETE FROM runs WHERE run_id IN ({marks})", ids)
                self._conn.commit()
        return len(doomed)

"""The one on-disk cache tier: atomic publish plus single-flight dedup.

:class:`SharedCache` is the store behind the experiment result cache
(:class:`~repro.batch.cache.ResultCache`).  N processes receiving the
same expensive experiment at once would otherwise compute it N times
— the waste the in-process coalescer eliminates for *one* event loop.
This module is the cross-process analogue, built on two primitives:

**Atomic publish.**  Entries are JSON documents under one directory,
content-addressed by the caller's key (``<experiment>-<cache_key>``
for results).  Writers publish via :func:`repro.util.fsio.atomic_write_text`; readers see a
complete old document or a complete new one, never a torn write.

**Claim files (single flight).**  ``get_or_compute_many`` elects one
*leader* per key via ``O_CREAT | O_EXCL`` on a sidecar ``.claim`` file
— the one atomic test-and-set the filesystem gives us.  A caller leads
every missing key it can claim, computing them in one call, and is a
*follower* for the rest: it polls for their published entries and
returns the same bytes without computing.  A claim names its holder's
pid and birth time, so a crashed leader cannot deadlock its followers:
a claim whose process is gone (or whose age exceeds ``stale_claim``) is
*taken over* — atomically replaced, last writer wins.  In the window
where two followers take over at once both may compute, which is safe
(publishes are atomic and the value is a pure function of the key) and
bounded (the normal path computes exactly once — the property pinned by
``tests/properties/test_single_flight_properties.py``).

Entries never expire: :class:`~repro.batch.cache.ResultCache` folds the
package version into its keys, so a code change is what invalidates
them.  (Entries written with an ``"expires"`` field by older versions
still read as hits; the field is ignored.)
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from repro.errors import InvalidParameterError
from repro.util.fsio import atomic_write_text

__all__ = ["SharedCache", "SingleFlightStats"]

_SCHEMA_VERSION = 1

#: Single-flight outcome labels, in the order a request cascades —
#: published entry found (``hit``), claim won (``leader``), leader's
#: publish awaited (``follower``), or computed without a usable tier /
#: after outwaiting a live claim / failed and left unpublished
#: (``local``) — and the
#: :class:`SingleFlightStats` counter each one bumps.
OUTCOMES = {"hit": "hits", "leader": "leads", "follower": "follows",
            "local": "locals"}


class SingleFlightStats:
    """Counters for one :class:`SharedCache` instance (one process)."""

    __slots__ = ("hits", "leads", "follows", "locals", "takeovers")

    def __init__(self) -> None:
        self.hits = 0
        self.leads = 0
        self.follows = 0
        self.locals = 0
        self.takeovers = 0

    def as_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "leads": self.leads,
                "follows": self.follows, "locals": self.locals,
                "takeovers": self.takeovers}


class SharedCache:
    """A directory of atomically-published, claim-guarded JSON values.

    Parameters
    ----------
    root:
        Directory holding ``<key>.json`` entries and ``<key>.claim``
        sidecars; created on first write.
    stale_claim:
        Seconds after which any claim is considered abandoned and may be
        taken over, even one whose holder is still alive.  Claims of
        *dead* local processes are taken over immediately.  A batch's
        claims age from the moment they are taken, so another process
        may recompute part of a batch that runs longer than this; that
        duplicate work is bounded and safe (publishes are atomic and
        the value is a pure function of the key).
    poll_interval:
        Follower poll cadence while awaiting a leader's publish.
    """

    def __init__(self, root: str | Path, *, stale_claim: float = 30.0,
                 poll_interval: float = 0.005) -> None:
        if not stale_claim > 0:
            raise InvalidParameterError(
                f"stale_claim must be positive, got {stale_claim!r}")
        if not poll_interval > 0:
            raise InvalidParameterError(
                f"poll_interval must be positive, got {poll_interval!r}")
        self.root = Path(root)
        self.stale_claim = float(stale_claim)
        self.poll_interval = float(poll_interval)
        self.stats = SingleFlightStats()

    # -- paths ---------------------------------------------------------
    def _entry_path(self, key: str) -> Path:
        return self.root / f"{_safe(key)}.json"

    def _claim_path(self, key: str) -> Path:
        return self.root / f"{_safe(key)}.claim"

    # -- the published tier --------------------------------------------
    def get(self, key: str) -> Any | None:
        """The published value, or ``None`` on any kind of miss.

        Damaged entries degrade to misses: this tier can lose entries,
        never corrupt them.
        """
        document = self._read_entry(key)
        return None if document is None else document["value"]

    def _read_entry(self, key: str) -> dict[str, Any] | None:
        try:
            document = json.loads(
                self._entry_path(key).read_text(encoding="utf-8"))
            if (document.get("schema_version") != _SCHEMA_VERSION
                    or document.get("key") != key):
                return None
            return document
        except (OSError, ValueError, AttributeError, KeyError, TypeError):
            return None

    def put(self, key: str, value: Any) -> bool:
        """Atomically publish ``value``; False when it defies JSON/disk."""
        document = {"schema_version": _SCHEMA_VERSION, "key": key,
                    "value": value}
        try:
            text = json.dumps(document, separators=(",", ":"),
                              allow_nan=False)
        except (TypeError, ValueError):
            return False
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            atomic_write_text(self._entry_path(key), text)
        except OSError:
            return False
        return True

    # -- the claim protocol --------------------------------------------
    def try_claim(self, key: str) -> str | None:
        """Win the key's claim (→ a release token) or ``None`` if held.

        Raises ``OSError`` when the root cannot hold a claim at all;
        only the exclusive create finding a claim file means "held".
        """
        token, body = _new_claim()
        self.root.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(self._claim_path(key),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return None
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(body)
        return token

    def release_claim(self, key: str, token: str) -> None:
        """Drop the claim if (and only if) ``token`` still holds it."""
        path = self._claim_path(key)
        try:
            holder = json.loads(path.read_text(encoding="utf-8"))
            if holder.get("token") == token:
                _unlink_quietly(path)
        except (OSError, ValueError, AttributeError):
            pass

    def _claim_is_stale(self, key: str) -> bool:
        """True when the claim's holder is provably gone or too old."""
        path = self._claim_path(key)
        try:
            holder = json.loads(path.read_text(encoding="utf-8"))
            born = float(holder["time"])
            pid = int(holder["pid"])
        except (OSError, ValueError, KeyError, TypeError):
            # Unreadable mid-write is expected for a moment; only age
            # can condemn a claim we cannot parse.
            try:
                born = path.stat().st_mtime
            except OSError:
                return False  # claim vanished: not stale, gone
            return time.time() - born > self.stale_claim
        if time.time() - born > self.stale_claim:
            return True
        if pid == os.getpid():
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True  # holder is dead; nobody will publish or release
        except PermissionError:
            return False  # alive, different uid
        return False

    def _take_over(self, key: str) -> str | None:
        """Atomically replace a stale claim with our own (→ token).

        Last writer wins; the small window where two takers race is
        resolved by re-reading the claim — only the taker whose token
        survived is leader.
        """
        token, body = _new_claim()
        path = self._claim_path(key)
        try:
            atomic_write_text(path, body)
            holder = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if holder.get("token") != token:
            return None
        self.stats.takeovers += 1
        return token

    # -- single flight -------------------------------------------------
    def get_or_compute(self, key: str, compute: Callable[[], Any], *,
                       wait_timeout: float = 600.0) -> tuple[Any, str]:
        """``(value, outcome)``: the one-key :meth:`get_or_compute_many`."""
        return self.get_or_compute_many([key], lambda _: {key: compute()},
                                        wait_timeout=wait_timeout)[key]

    def get_or_compute_many(
            self, keys: Iterable[str],
            compute: Callable[[list[str]], Mapping[str, Any]], *,
            wait_timeout: float = 600.0) -> dict[str, tuple[Any, str]]:
        """``{key: (value, outcome)}``, each key computed once anywhere.

        Each round reads the published keys, claims the missing ones it
        can, calls ``compute(claimed)`` once, publishes what it returns
        and releases the claims, then polls for keys others hold.  A key
        ``compute`` leaves out failed: unpublished, it reads ``(None,
        "local")`` and a waiting process claims it next.  A root that
        cannot hold claims, or claims held past ``wait_timeout``, mean
        computing here unpublished: never wedge a caller.
        """
        pending, results = list(dict.fromkeys(keys)), {}
        deadline = time.monotonic() + wait_timeout
        poll, waited = self.poll_interval, False
        while pending:
            expired = time.monotonic() > deadline
            claimed: dict[str, str] = {}  # key -> claim token
            local, held = [], []
            for key in pending:
                entry = self._read_entry(key)
                if entry is None:
                    try:
                        token = self.try_claim(key)
                    except OSError:
                        local.append(key)
                        continue
                    if token is None and self._claim_is_stale(key):
                        token = self._take_over(key)
                    if token is None:
                        (local if expired else held).append(key)
                        continue
                    # Double-check under the claim: the previous leader
                    # may have published and released since our read.
                    entry = self._read_entry(key)
                    if entry is None:
                        claimed[key] = token
                        continue
                    self.release_claim(key, token)
                results[key] = self._tally(entry["value"],
                                           "follower" if waited else "hit")
            if claimed or local:
                try:
                    values = compute([*claimed, *local])
                    for key in claimed:
                        if key in values:
                            self.put(key, values[key])
                finally:
                    for key, token in claimed.items():
                        self.release_claim(key, token)
                for key in [*claimed, *local]:
                    results[key] = self._tally(values.get(key), (
                        "leader" if key in claimed and key in values
                        else "local"))
            pending = held
            if pending:
                time.sleep(poll)
                poll, waited = min(poll * 1.5, 0.05), True
        return results

    def _tally(self, value: Any, outcome: str) -> tuple[Any, str]:
        name = OUTCOMES[outcome]
        setattr(self.stats, name, getattr(self.stats, name) + 1)
        return value, outcome


def _new_claim() -> tuple[str, str]:
    """A fresh release token and the claim body naming this process."""
    token = f"{os.getpid()}-{os.urandom(8).hex()}"
    return token, json.dumps({"pid": os.getpid(), "token": token,
                              "time": time.time()})


def _safe(key: str) -> str:
    """Keys become filenames; anything exotic is hex-armoured."""
    if key and all(c.isalnum() or c in "-_." for c in key):
        return key
    return "x" + key.encode("utf-8", "surrogatepass").hex()


def _unlink_quietly(path: Path) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass

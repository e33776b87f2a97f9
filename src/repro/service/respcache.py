"""A TTL'd LRU cache for deterministic endpoint responses.

Keys are content addresses in the style of the batch layer's
:class:`~repro.batch.cache.ResultCache`: the SHA-256 of the canonical
JSON form of ``(route, request payload, package version)``.  The
version folds in so a code change invalidates every entry at once —
the same contract that makes the on-disk result cache safe.

Values are *rendered response bodies* (bytes), so a hit skips JSON
encoding as well as evaluation.  The store is a plain ``OrderedDict``
guarded by a lock: the server mutates it from the event-loop thread,
but tests and the stats endpoint may peek from others.

Under ``serve --workers N`` the cache gains a second, process-shared
tier (a :class:`~repro.batch.shared_cache.SharedCache` in the
supervisor's temporary run directory, removed on exit, so TTL'd bodies
never accumulate on disk): a memory miss falls through to the shared
directory, and a shared hit is promoted into memory with its
*remaining* TTL, so one worker's rendered response serves every worker
without a fresh compute — and without any worker extending the entry's
lifetime.  A single-worker server has no shared tier.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable

from repro import __version__

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.batch.shared_cache import SharedCache

__all__ = ["ResponseCache"]


class ResponseCache:
    """Bounded mapping of content key → (expiry, response bytes).

    ``max_entries=0`` or ``ttl=0`` turns the cache into a no-op (every
    ``get`` misses, every ``put`` is dropped) so the server logic never
    branches on "is caching enabled".  ``shared`` optionally attaches a
    cross-process tier; ``last_tier`` records where the most recent
    ``get`` was answered from (``"memory"``, ``"shared"``, or ``None``
    on a miss) for the caller's metrics — safe because each worker's
    event loop is the only thread issuing gets.
    """

    def __init__(self, max_entries: int, ttl: float,
                 clock: Callable[[], float] = time.monotonic,
                 shared: "SharedCache | None" = None) -> None:
        self.max_entries = int(max_entries)
        self.ttl = float(ttl)
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, tuple[float, bytes]] = OrderedDict()
        self.shared = shared
        self.hits = 0
        self.misses = 0
        self.shared_hits = 0
        self.last_tier: str | None = None

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0 and self.ttl > 0

    @staticmethod
    def key(route: str, payload: Any) -> str:
        """The content address of one request (canonical-JSON SHA-256)."""
        canonical = json.dumps(
            {"route": route, "payload": payload, "version": __version__},
            sort_keys=True, separators=(",", ":"), allow_nan=False)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def get(self, key: str) -> bytes | None:
        """The live cached body, or None (expired entries are evicted)."""
        self.last_tier = None
        if not self.enabled:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                expires, body = entry
                if self._clock() < expires:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    self.last_tier = "memory"
                    return body
                del self._entries[key]
        body = self._get_shared(key)
        if body is not None:
            self.hits += 1
            self.shared_hits += 1
            self.last_tier = "shared"
            return body
        self.misses += 1
        return None

    def _get_shared(self, key: str) -> bytes | None:
        """A shared-tier hit, promoted into memory with its remaining TTL."""
        if self.shared is None:
            return None
        found = self.shared.get_with_expiry(key)
        if found is None:
            return None
        text, expires = found
        if not isinstance(text, str):
            return None
        body = text.encode("utf-8")
        remaining = self.ttl
        if expires is not None:
            remaining = min(remaining, expires - time.time())
            if remaining <= 0:
                return None
        with self._lock:
            self._entries[key] = (self._clock() + remaining, body)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return body

    def put(self, key: str, body: bytes) -> None:
        """Store one rendered body, evicting LRU entries past the cap."""
        if not self.enabled:
            return
        with self._lock:
            self._entries[key] = (self._clock() + self.ttl, body)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        if self.shared is not None:
            self.shared.put(key, body.decode("utf-8"), ttl=self.ttl)

    def __len__(self) -> int:
        return len(self._entries)

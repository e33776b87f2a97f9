"""An LRU cache for deterministic endpoint responses.

Keys are content addresses in the style of the batch layer's
:class:`~repro.batch.cache.ResultCache`: the SHA-256 of
``(package version, request_key(kind, payload))``, where
:func:`~repro.service.coalescer.request_key` is the solver's own
identity of a validated request.  Requests that differ only in JSON
spelling (key order, whitespace, omitted Table-1 ``params``, ``100``
for ``100.0``) validate to the same payload and so share one entry.
The version folds in so a code change invalidates every entry at once —
the same contract that makes the on-disk result cache safe.  Every body
is a pure function of its key, so entries never expire; only the
capacity evicts them.

Values are *rendered response bodies* (bytes), so a hit skips JSON
encoding as well as evaluation.  The store is a plain ``OrderedDict``
guarded by a lock: the server mutates it from the event-loop thread,
but tests and the stats endpoint may peek from others.

The cache is process-local: under ``serve --workers N`` each worker
answers its own repeats, so a hot key costs at most N computes.  The
workers' bodies are byte-identical and nothing is written to disk.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any

import orjson

from repro import __version__
from repro.service.coalescer import request_key

__all__ = ["ResponseCache"]


class ResponseCache:
    """Bounded mapping of content key → response bytes.

    ``max_entries=0`` turns the cache into a no-op (every ``get``
    misses, every ``put`` is dropped) so the server logic never
    branches on "is caching enabled".
    """

    def __init__(self, max_entries: int) -> None:
        self.max_entries = int(max_entries)
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        self.hits = 0
        self.misses = 0

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0

    @staticmethod
    def key(kind: str, payload: dict[str, Any]) -> str:
        """The content address of one validated evaluation request."""
        identity = orjson.dumps((__version__, request_key(kind, payload)))
        return hashlib.sha256(identity).hexdigest()

    def get(self, key: str) -> bytes | None:
        """The cached body, or None."""
        if not self.enabled:
            return None
        with self._lock:
            body = self._entries.get(key)
            if body is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return body
            self.misses += 1
        return None

    def put(self, key: str, body: bytes) -> None:
        """Store one rendered body, evicting LRU entries past the cap."""
        if not self.enabled:
            return
        with self._lock:
            self._entries[key] = body
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

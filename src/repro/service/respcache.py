"""A byte-budgeted LRU cache for deterministic endpoint responses.

Keys are content addresses in the style of the batch layer's
:class:`~repro.batch.cache.ResultCache`: the 32-byte SHA-256 of
``(package version, request_key(kind, payload))``, where
:func:`~repro.service.coalescer.request_key` is the solver's own
identity of a validated request.  That identity holds SHA-256 digests
of the profile and orders, never their values, so a key costs the same
at n = 16 and at n = 20,000.  Requests that differ only in JSON
spelling (key order, whitespace, omitted Table-1 ``params``, ``100``
for ``100.0``) validate to the same payload and so share one entry.
The version folds in so a code change invalidates every entry at once —
the same contract that makes the on-disk result cache safe.  Every body
is a pure function of its key, so entries never expire; only the byte
budget evicts them.

Values are *rendered response bodies* (bytes), so a hit skips JSON
encoding as well as evaluation.  The budget bounds memory, not entry
count: each entry is charged its body's length plus
:data:`ENTRY_OVERHEAD` for its key and slot, so neither a few huge
answers nor a flood of tiny ones can outgrow it.  A body larger than
an eighth of the budget is never stored, so one answer cannot flush
the hot set.  The store is a plain ``OrderedDict`` guarded by a lock:
the server mutates it from the event-loop thread, but tests and the
stats endpoint may peek from others.

The cache is process-local: under ``serve --workers N`` each worker
answers its own repeats from its own budget, so a hot key costs at most
N computes and the fleet holds at most N budgets.  The workers' bodies
are byte-identical and nothing is written to disk.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any

import orjson

from repro import __version__
from repro.service.coalescer import request_key

__all__ = ["ENTRY_OVERHEAD", "ResponseCache"]

#: Bytes charged per entry on top of its body: the 32-byte key object,
#: the body's ``bytes`` header and the ordered-dict slot (measured with
#: ``tracemalloc`` at about 175 bytes on CPython 3.11, rounded up).
ENTRY_OVERHEAD = 256


class ResponseCache:
    """Content key → response bytes, bounded by ``max_bytes``.

    ``max_bytes=0`` turns the cache into a no-op (every ``get``
    misses, every ``put`` is dropped) so the server logic never
    branches on "is caching enabled".
    """

    def __init__(self, max_bytes: int) -> None:
        self.max_bytes = int(max_bytes)
        #: The largest body :meth:`put` stores.
        self.largest_body = self.max_bytes // 8
        self._lock = threading.Lock()
        self._entries: OrderedDict[bytes, bytes] = OrderedDict()
        #: Bytes charged for the entries now held (at most ``max_bytes``).
        self.resident_bytes = 0
        self.hits = 0
        self.misses = 0

    @property
    def enabled(self) -> bool:
        return self.max_bytes > 0

    @staticmethod
    def key(kind: str, payload: dict[str, Any]) -> bytes:
        """The content address of one validated evaluation request."""
        identity = orjson.dumps((__version__, request_key(kind, payload)))
        return hashlib.sha256(identity).digest()

    def get(self, key: bytes) -> bytes | None:
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

    def put(self, key: bytes, body: bytes) -> None:
        """Store one rendered body, evicting LRU entries past the budget.

        A body over ``largest_body`` is not stored (and the cache is
        left as it was).
        """
        if not self.enabled or len(body) > self.largest_body:
            return
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.resident_bytes -= len(old) + ENTRY_OVERHEAD
            self._entries[key] = body
            self.resident_bytes += len(body) + ENTRY_OVERHEAD
            while self.resident_bytes > self.max_bytes:
                _, evicted = self._entries.popitem(last=False)
                self.resident_bytes -= len(evicted) + ENTRY_OVERHEAD

    def __len__(self) -> int:
        return len(self._entries)

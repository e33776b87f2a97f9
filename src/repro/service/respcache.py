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
an eighth of the budget (``largest_body``) is never stored, so one
answer cannot flush the hot set.

An answer is admitted on second sight, through two LRU segments that
share the budget (a segmented LRU, the main-cache policy of
W-TinyLFU):

* **probation** takes every first-sight :meth:`ResponseCache.put` and
  holds at most one largest body, ``largest_body + ENTRY_OVERHEAD``
  bytes;
* **main** takes an entry when a :meth:`ResponseCache.get` hits it in
  probation, and holds the rest of the budget.

A stream of answers nobody asks for again churns probation only, so it
costs at most one largest body, and main's hot set is never evicted by
it.  An answer is readable from the moment it is stored, so the second
request of a thundering herd is already a hit (and promotes it).  Each
segment is a plain ``OrderedDict``, and one lock guards both: the
server mutates them from the event-loop thread, but tests and the stats
endpoint may peek from others.

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


class _Segment:
    """One LRU segment: key → body, with the bytes charged for it."""

    __slots__ = ("entries", "charged", "max_bytes")

    def __init__(self, max_bytes: int) -> None:
        self.entries: OrderedDict[bytes, bytes] = OrderedDict()
        self.charged = 0
        self.max_bytes = max_bytes

    def store(self, key: bytes, body: bytes) -> None:
        """Store ``key`` as most recent, evicting LRU entries past the cap.

        A body that alone outgrows the cap is dropped, evicting nothing.
        """
        self.pop(key)
        charge = len(body) + ENTRY_OVERHEAD
        if charge > self.max_bytes:
            return
        self.entries[key] = body
        self.charged += charge
        while self.charged > self.max_bytes:
            _, evicted = self.entries.popitem(last=False)
            self.charged -= len(evicted) + ENTRY_OVERHEAD

    def pop(self, key: bytes) -> bytes | None:
        body = self.entries.pop(key, None)
        if body is not None:
            self.charged -= len(body) + ENTRY_OVERHEAD
        return body


class ResponseCache:
    """Content key → response bytes, bounded by ``max_bytes``.

    First-sight bodies wait in a probation segment of one largest body;
    a hit there promotes the entry to the main segment, which holds the
    rest of the budget.  ``max_bytes=0`` turns the cache into a no-op
    (every ``get`` misses, every ``put`` is dropped) so the server logic
    never branches on "is caching enabled".
    """

    def __init__(self, max_bytes: int) -> None:
        self.max_bytes = int(max_bytes)
        #: The largest body :meth:`put` stores.
        self.largest_body = self.max_bytes // 8
        probation = min(self.largest_body + ENTRY_OVERHEAD, self.max_bytes)
        self._lock = threading.Lock()
        self._probation = _Segment(probation)
        self._main = _Segment(self.max_bytes - probation)
        self.hits = 0
        self.misses = 0

    @property
    def enabled(self) -> bool:
        return self.max_bytes > 0

    @property
    def resident_bytes(self) -> int:
        """Bytes charged for the entries of both segments (at most
        ``max_bytes``)."""
        return self._probation.charged + self._main.charged

    @staticmethod
    def key(kind: str, payload: dict[str, Any]) -> bytes:
        """The content address of one validated evaluation request."""
        identity = orjson.dumps((__version__, request_key(kind, payload)))
        return hashlib.sha256(identity).digest()

    def get(self, key: bytes) -> bytes | None:
        """The cached body, or None; a probation hit promotes it to main."""
        if not self.enabled:
            return None
        with self._lock:
            body = self._main.entries.get(key)
            if body is not None:
                self._main.entries.move_to_end(key)
            else:
                body = self._probation.pop(key)
                if body is None:
                    self.misses += 1
                    return None
                self._main.store(key, body)
            self.hits += 1
            return body

    def put(self, key: bytes, body: bytes) -> None:
        """Store one rendered body, evicting LRU entries past the budget.

        A key not held yet goes to probation; a held key is replaced in
        its segment.  A body over ``largest_body`` is not stored (and the
        cache is left as it was).
        """
        if not self.enabled or len(body) > self.largest_body:
            return
        with self._lock:
            segment = (self._main if key in self._main.entries
                       else self._probation)
            segment.store(key, body)

    def __len__(self) -> int:
        return len(self._probation.entries) + len(self._main.entries)

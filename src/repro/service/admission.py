"""Admission control: token-bucket rate limiting and in-flight ceilings.

The serving layer's overload story is *shed early, shed cheaply*: a
request the server cannot afford is answered with ``429`` (rate) or
``503`` (concurrency) plus a ``Retry-After`` hint **before** any
evaluation work happens, so an overloaded server degrades into fast
rejections instead of a growing queue of timeouts.  Both mechanisms
are O(1) per decision and run on the event loop thread.
"""

from __future__ import annotations

import math
import time
from typing import Callable

from repro.errors import InvalidParameterError

__all__ = ["TokenBucket", "AdmissionController", "AdmissionDecision"]


class TokenBucket:
    """The classic token bucket: ``rate`` tokens/second, ``burst`` deep.

    ``try_acquire`` either takes a token (returns 0.0) or returns the
    seconds until one will be available — which is exactly the
    ``Retry-After`` a shed response should carry.

    Examples
    --------
    >>> clock = iter([0.0, 0.0, 0.0]).__next__
    >>> bucket = TokenBucket(rate=10.0, burst=1.0, clock=clock)
    >>> bucket.try_acquire()
    0.0
    >>> round(bucket.try_acquire(), 3)   # empty: next token in 1/10 s
    0.1
    """

    __slots__ = ("rate", "burst", "_tokens", "_clock", "_last")

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if not rate > 0 or rate != rate:
            raise InvalidParameterError(f"rate must be positive, got {rate!r}")
        if not burst >= 1:
            raise InvalidParameterError(f"burst must be >= 1, got {burst!r}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._clock = clock
        self._last = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(self.burst,
                           self._tokens + (now - self._last) * self.rate)
        self._last = now

    def try_acquire(self, tokens: float = 1.0) -> float:
        """Take ``tokens`` if available (→ 0.0), else seconds to wait."""
        self._refill()
        if self._tokens >= tokens:
            self._tokens -= tokens
            return 0.0
        return (tokens - self._tokens) / self.rate

    @property
    def tokens(self) -> float:
        """Current token count (after refilling to now)."""
        self._refill()
        return self._tokens


class AdmissionDecision:
    """The outcome of one admission check.

    Truthiness means *admitted*.  Rejections carry the HTTP status
    (429/503), a one-word ``reason`` used as the ``svc_shed_total``
    label, and the ``retry_after`` seconds for the response header.
    """

    __slots__ = ("admitted", "status", "reason", "retry_after")

    def __init__(self, admitted: bool, status: int = 200,
                 reason: str = "", retry_after: float = 0.0) -> None:
        self.admitted = admitted
        self.status = status
        self.reason = reason
        self.retry_after = retry_after

    def __bool__(self) -> bool:
        return self.admitted

    @property
    def retry_after_header(self) -> str:
        """``Retry-After`` wants integral seconds; round up, floor 1."""
        return str(max(1, math.ceil(self.retry_after)))


_ADMITTED = AdmissionDecision(True)


class AdmissionController:
    """Combines the bucket and the in-flight ceiling into one gate.

    ``admit()`` is called once per shed-eligible request; when it
    admits, the caller **must** pair it with ``release()`` (the app
    does so in a ``finally``) or the in-flight count leaks.
    """

    def __init__(self, *, max_inflight: int, rate: float = 0.0,
                 burst: float = 64.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if max_inflight < 1:
            raise InvalidParameterError(
                f"max_inflight must be >= 1, got {max_inflight!r}")
        self.max_inflight = int(max_inflight)
        self.inflight = 0
        self._bucket = (TokenBucket(rate, burst, clock=clock)
                        if rate > 0 else None)

    def admit(self) -> AdmissionDecision:
        """Admit (and count) one request, or say how to shed it."""
        if self._bucket is not None:
            wait = self._bucket.try_acquire()
            if wait > 0.0:
                return AdmissionDecision(False, status=429,
                                         reason="ratelimit", retry_after=wait)
        if self.inflight >= self.max_inflight:
            # In-flight requests answer in milliseconds; one second is
            # an honest "try again" horizon for a loopback client.
            return AdmissionDecision(False, status=503, reason="overload",
                                     retry_after=1.0)
        self.inflight += 1
        return _ADMITTED

    def release(self) -> None:
        """Return one admitted request's in-flight slot."""
        if self.inflight <= 0:  # pragma: no cover - guarded by the app
            raise InvalidParameterError("release() without a matching admit()")
        self.inflight -= 1

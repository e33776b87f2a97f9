"""Graceful-drain tests: SIGTERM semantics without the signals.

``ReproService.stop()`` (what SIGTERM triggers) must stop accepting
before cancelling anything, give in-flight requests ``drain_timeout``
seconds to finish, and answer requests arriving on surviving
keep-alive connections with ``503`` + ``Retry-After`` instead of a
connection reset.  These drive the drain directly over raw sockets so
the keep-alive/reset distinction is observable.
"""

import asyncio
import json
import socket
import time

import pytest

from repro.service.config import ServiceConfig
from repro.service.runtime import ServiceThread


def _send_request(sock: socket.socket, method: str, path: str,
                  payload: dict | None = None) -> None:
    body = json.dumps(payload).encode() if payload is not None else b""
    head = (f"{method} {path} HTTP/1.1\r\n"
            f"Host: t\r\nContent-Length: {len(body)}\r\n"
            f"Content-Type: application/json\r\n\r\n").encode()
    sock.sendall(head + body)


def _read_response(sock: socket.socket) -> tuple[int, dict[str, str], bytes]:
    sock.settimeout(30.0)
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("peer closed before a full response")
        data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    while len(rest) < length:
        chunk = sock.recv(65536)
        if not chunk:
            break
        rest += chunk
    return status, headers, rest


def _slow_evaluations(server: ServiceThread, delay: float) -> None:
    """Make every evaluation request take ``delay`` seconds in flight.

    The request sleeps on the event loop before reaching the coalescer,
    so it stays in flight without blocking the server.
    """
    batcher = server.service.batcher
    submit = batcher.submit

    async def slow_submit(*args, **kwargs):
        await asyncio.sleep(delay)
        return await submit(*args, **kwargs)

    batcher.submit = slow_submit


def _start_drain(server: ServiceThread, timeout: float) -> "asyncio.Future":
    """Kick off service.drain() on the server's loop; returns the future."""
    return asyncio.run_coroutine_threadsafe(
        server.service.drain(timeout), server._loop)


@pytest.fixture
def server():
    config = ServiceConfig(port=0, no_store=True, cache_bytes=0,
                           drain_timeout=2.0)
    with ServiceThread(config) as running:
        yield running


class TestDrain:
    def test_keepalive_request_during_drain_gets_503(self):
        # An in-flight slow request holds the drain open; a request
        # arriving on another keep-alive connection in that window must
        # get a clean 503, not a connection reset.
        config = ServiceConfig(port=0, no_store=True, cache_bytes=0,
                               drain_timeout=5.0)
        with ServiceThread(config) as server:
            _slow_evaluations(server, 0.5)
            slow = socket.create_connection(("127.0.0.1", server.port))
            idle = socket.create_connection(("127.0.0.1", server.port))
            try:
                _send_request(idle, "GET", "/healthz")
                status, headers, _ = _read_response(idle)
                assert status == 200
                assert headers.get("connection") == "keep-alive"

                _send_request(slow, "POST", "/v1/x",
                              {"profile": [1.0, 2.0]})
                time.sleep(0.05)  # slow request is now in flight
                future = _start_drain(server, 5.0)
                time.sleep(0.1)  # drain flag is set, waiting on `slow`

                # The idle connection survived the listener closing;
                # its next request must be answered, not reset.
                _send_request(idle, "GET", "/healthz")
                status, headers, body = _read_response(idle)
                assert status == 503
                assert headers.get("retry-after") == "1"
                assert headers.get("connection") == "close"
                assert json.loads(body)["error"] == "shed: draining"

                status, _, _ = _read_response(slow)
                assert status == 200  # in-flight work was not axed
                future.result(timeout=10.0)
            finally:
                slow.close()
                idle.close()

    def test_drain_refuses_new_connections(self, server):
        port = server.port
        future = _start_drain(server, 1.0)
        future.result(timeout=10.0)
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=1.0)

    def test_inflight_request_finishes_within_drain_timeout(self):
        # An observably slow eval request: a drain starting mid-request
        # must still answer it with 200.
        config = ServiceConfig(port=0, no_store=True, cache_bytes=0,
                               drain_timeout=5.0)
        with ServiceThread(config) as server:
            _slow_evaluations(server, 0.4)
            with socket.create_connection(("127.0.0.1", server.port)) as sock:
                _send_request(sock, "POST", "/v1/x",
                              {"profile": [1.0, 2.0, 3.0]})
                time.sleep(0.05)  # request is now in flight
                started = time.perf_counter()
                future = _start_drain(server, 5.0)
                status, _, body = _read_response(sock)
                future.result(timeout=10.0)
                assert status == 200
                assert json.loads(body)["n"] == 3
                # ... and the drain waited for it rather than axing it.
                assert time.perf_counter() - started < 5.0

    def test_drain_past_timeout_closes_lingering_connections(self, server):
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            _send_request(sock, "GET", "/healthz")
            _read_response(sock)
            # An idle keep-alive connection does not block the drain:
            # it is closed once in-flight work (none here) is done.
            future = _start_drain(server, 0.5)
            future.result(timeout=10.0)
            deadline = time.monotonic() + 5.0
            closed = False
            while time.monotonic() < deadline:
                try:
                    if sock.recv(1) == b"":
                        closed = True
                        break
                except (ConnectionResetError, socket.timeout, OSError):
                    closed = True
                    break
            assert closed

    def test_drain_is_idempotent_and_stop_still_works(self, server):
        future = _start_drain(server, 0.5)
        future.result(timeout=10.0)
        again = _start_drain(server, 0.5)
        again.result(timeout=10.0)  # second drain is a no-op, not an error

    def test_shed_counter_labels_draining(self):
        config = ServiceConfig(port=0, no_store=True, cache_bytes=0,
                               drain_timeout=5.0)
        with ServiceThread(config) as server:
            _slow_evaluations(server, 0.5)
            registry = server.service.registry
            # The service shares the process-global registry: other
            # tests may have shed already, so assert the delta.
            before = registry.counter(
                "svc_shed_total", "").value(reason="draining")
            slow = socket.create_connection(("127.0.0.1", server.port))
            idle = socket.create_connection(("127.0.0.1", server.port))
            try:
                _send_request(idle, "GET", "/healthz")
                _read_response(idle)
                _send_request(slow, "POST", "/v1/x", {"profile": [1.0]})
                time.sleep(0.05)
                future = _start_drain(server, 5.0)
                time.sleep(0.1)
                _send_request(idle, "GET", "/healthz")
                status, _, _ = _read_response(idle)
                assert status == 503
                _read_response(slow)
                future.result(timeout=10.0)
            finally:
                slow.close()
                idle.close()
            assert registry.counter(
                "svc_shed_total", "").value(reason="draining") == before + 1

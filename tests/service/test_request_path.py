"""Each ``/v1/*`` request's work is done once.

* Every input is checked once, at the boundary that receives it
  (``parse_eval_payload``), and the checked values go on to the library:
  an allocation checks each client order exactly once, a generated
  order never, and builds one :class:`~repro.core.profile.Profile`.
* A request's run-store row is buffered and written in batches: by a
  timer, before any ``/v1/obs/*`` read, and in ``stop()``; a failed
  write loses telemetry, never a request.
"""

import asyncio
import sqlite3
import time
from collections import Counter

import pytest

import repro.protocols.base
import repro.protocols.fifo
import repro.protocols.general
import repro.service.app as app
import repro.service.coalescer as coalescer
from repro.core.profile import Profile
from repro.obs.metrics import MetricsRegistry
from repro.obs.store import RunStore
from repro.service import ServiceConfig, ServiceThread

N = 8
PROFILE = [1.0 - i / (2 * N) for i in range(N)]


@pytest.fixture
def counted(monkeypatch):
    """Count order checks by order name, Profile builds, and keep every
    allocation the solver answers with."""
    checks: Counter = Counter()
    built: list[int] = []
    allocations: list = []
    check = repro.protocols.base.validate_order

    def counting_check(order, n, *, name="order"):
        checks[name] += 1
        return check(order, n, name=name)

    for module in (repro.protocols.base, repro.protocols.fifo,
                   repro.protocols.general, app):
        monkeypatch.setattr(module, "validate_order", counting_check)
    init = Profile.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Profile, "__init__", counting_init)
    to_dict = coalescer.allocation_to_dict

    def keeping_to_dict(allocation):
        allocations.append(allocation)
        return to_dict(allocation)

    monkeypatch.setattr(coalescer, "allocation_to_dict", keeping_to_dict)
    return checks, built, allocations


@pytest.fixture
def server():
    # The response cache stays on: its key encodes the checked orders
    # with orjson, which refuses anything but plain tuples.
    config = ServiceConfig(port=0, no_result_cache=True, no_store=True)
    with ServiceThread(config, registry=MetricsRegistry()) as thread:
        yield thread


class TestEachInputCheckedOnce:
    @pytest.mark.parametrize("body, expected_checks", [
        ({}, {}),
        ({"startup_order": list(reversed(range(N)))}, {"startup_order": 1}),
        ({"protocol": "lp", "startup_order": list(reversed(range(N))),
          "finishing_order": [*range(1, N), 0]},
         {"startup_order": 1, "finishing_order": 1}),
        ({"protocol": "lp"}, {}),
    ], ids=["fifo-no-order", "fifo-order", "lp-both-orders", "lp-no-order"])
    def test_allocate(self, server, counted, body, expected_checks):
        checks, built, allocations = counted
        with server.client() as client:
            answer = client.request("POST", "/v1/allocate",
                                    {"profile": PROFILE, "lifespan": 100.0,
                                     **body})
        assert dict(checks) == expected_checks
        assert len(built) == 1
        (allocation,) = allocations
        assert type(allocation.startup_order) is tuple
        assert type(allocation.finishing_order) is tuple
        assert all(type(i) is int for i in allocation.startup_order
                   + allocation.finishing_order)
        assert answer["allocation"]["startup_order"] == body.get(
            "startup_order", list(range(N)))

    @pytest.mark.parametrize("route", ["/v1/x", "/v1/work", "/v1/hecr"])
    def test_x_family_builds_one_profile(self, server, counted, route):
        _, built, _ = counted
        with server.client() as client:
            client.request("POST", route, {"profile": PROFILE})
        assert len(built) == 1

    def test_repeat_is_a_cache_hit_with_no_solve(self, server, counted):
        checks, built, allocations = counted
        body = {"profile": PROFILE, "lifespan": 100.0, "protocol": "lp",
                "startup_order": list(range(N)),
                "finishing_order": list(reversed(range(N)))}
        with server.client() as client:
            first = client.request("POST", "/v1/allocate", body)
            again = client.request("POST", "/v1/allocate", body)
        assert first == again
        assert len(allocations) == 1  # the second answer is the cached one
        assert dict(checks) == {"startup_order": 2, "finishing_order": 2}
        assert len(built) == 2

    def test_hand_built_payload_is_checked_by_the_library(self, counted):
        checks, built, _ = counted
        payload = {"profile": tuple(PROFILE),
                   "params": app.PAPER_TABLE1, "lifespan": 100.0,
                   "protocol": "fifo", "startup_order": (1.7, 0.2)}
        ((ok, error),) = coalescer.solve_batch([("allocate", payload)])
        assert not ok and isinstance(error, app.ProtocolError)
        assert dict(checks) == {"startup_order": 1}
        assert len(built) == 1


def _store_path(tmp_path):
    return tmp_path / "obs" / "runs.sqlite3"


def _boot(tmp_path):
    config = ServiceConfig(port=0, no_result_cache=True,
                           store_dir=str(tmp_path / "obs"))
    return ServiceThread(config, registry=MetricsRegistry())


def _stored_requests(tmp_path) -> list[dict]:
    with RunStore(_store_path(tmp_path)) as store:
        return store.runs(kind="request", limit=1000)


@pytest.fixture
def no_timer(monkeypatch):
    """A flush interval no test outlives: only reads and stop() flush."""
    monkeypatch.setattr(app, "_STORE_FLUSH_SECONDS", 3600.0)


class TestStoreRowBuffer:
    def test_every_row_answered_before_stop_is_stored(self, tmp_path,
                                                     no_timer):
        with _boot(tmp_path) as server:
            with server.client() as client:
                for i in range(20):
                    client.request("POST", "/v1/x",
                                   {"profile": [1.0, 0.5, 0.1 + i / 100]})
                client.request("POST", "/v1/allocate",
                               {"profile": PROFILE, "lifespan": 100.0})
            assert _stored_requests(tmp_path) == []  # still buffered
        rows = _stored_requests(tmp_path)
        assert Counter(row["label"] for row in rows) == {
            "/v1/x": 20, "/v1/allocate": 1}
        assert {row["status"] for row in rows} == {"200"}

    def test_summary_counts_a_request_answered_just_before(self, tmp_path,
                                                          no_timer):
        with _boot(tmp_path) as server:
            with server.client() as client:
                client.x(PROFILE)
                summary = client.request("GET", "/v1/obs/summary")
                client.x([1.0, 0.25])
                (newest, _) = client.request("GET", "/v1/obs/runs")["runs"]
        assert summary["store"]["by_kind"] == {"request": 1}
        assert newest["label"] == "/v1/x"

    def test_timer_writes_rows_without_a_read(self, tmp_path):
        with _boot(tmp_path) as server:
            with server.client() as client:
                client.x(PROFILE)
            deadline = time.monotonic() + 5.0
            while not _stored_requests(tmp_path):
                assert time.monotonic() < deadline, "row never flushed"
                time.sleep(app._STORE_FLUSH_SECONDS)
            assert server.service._store_rows == []

    def test_failed_flush_fails_no_request(self, tmp_path):
        class FailingWrites:
            """The store's connection, but every batch insert fails."""

            def __init__(self, conn):
                self._conn = conn

            def executemany(self, *args):
                raise sqlite3.OperationalError("disk I/O error")

            def __getattr__(self, name):
                return getattr(self._conn, name)

        loop_errors: list[dict] = []
        with _boot(tmp_path) as server:
            service = server.service
            service.store._conn = FailingWrites(service.store._conn)
            server._loop.call_soon_threadsafe(
                server._loop.set_exception_handler,
                lambda loop, context: loop_errors.append(context))
            with server.client() as client:
                for i in range(5):
                    client.x([1.0, 0.5, 0.1 + i / 100])
                # Let the timer fire (and fail) at least once.
                time.sleep(4 * app._STORE_FLUSH_SECONDS)
                assert service._store_rows == []
                assert service._store_flush is None
                assert client.x(PROFILE)["n"] == len(PROFILE)
                assert client.request("GET", "/v1/obs/summary")[
                    "store"]["runs"] == 0
        assert loop_errors == []
        assert _stored_requests(tmp_path) == []


def test_flush_cancels_a_pending_timer(tmp_path):
    async def scenario():
        service = app.ReproService(ServiceConfig(
            port=0, no_result_cache=True, store_dir=str(tmp_path / "obs")))
        await service.start()
        service._record("/v1/x", 200, 0.001, "POST", span_id="a" * 16)
        timer = service._store_flush
        assert timer is not None and len(service._store_rows) == 1
        service._flush_store()
        assert timer.cancelled() and service._store_flush is None
        await service.stop()

    asyncio.run(scenario())
    (row,) = _stored_requests(tmp_path)
    assert row["extra"] == {"method": "POST", "span_id": "a" * 16,
                            "shed": None}

"""Lifecycle tests for the pre-fork supervisor (repro.service.supervisor).

These spawn real forked worker processes on ephemeral ports, so each
test owns its supervisor on a background thread and always tears it
down.  Crash handling is exercised with real SIGKILLs.
"""

import json
import os
import re
import signal
import socket
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import InvalidParameterError
from repro.obs.metrics import MetricsRegistry
from repro.service.app import ReproService
from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig
from repro.service.runtime import ServiceThread
from repro.service.supervisor import (BURST_SHARE, EXIT_RESPAWN_BUDGET,
                                      Supervisor, worker_config)


class _RunningSupervisor:
    """A supervisor on a thread with guaranteed teardown."""

    def __init__(self, config: ServiceConfig, **kwargs) -> None:
        kwargs.setdefault("install_signals", False)
        self.supervisor = Supervisor(config, **kwargs)
        self.exit_code: int | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        self.exit_code = self.supervisor.run()

    def __enter__(self) -> "_RunningSupervisor":
        self._thread.start()
        self.port = self.supervisor.wait_ready(30.0)
        return self

    def __exit__(self, *exc_info) -> None:
        self.supervisor.initiate_stop()
        self._thread.join(timeout=30.0)

    def join(self, timeout: float = 30.0) -> int | None:
        self._thread.join(timeout=timeout)
        return self.exit_code

    def worker_pids(self) -> list[int]:
        # A slot's Process has pid None between construction and start().
        return [slot.process.pid for slot in self.supervisor._slots
                if slot.process is not None and slot.process.pid is not None]


def _config(**overrides) -> ServiceConfig:
    defaults = dict(port=0, workers=2, no_store=True, drain_timeout=2.0,
                    cache_bytes=0)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


class TestBudgetSplit:
    def test_rate_and_inflight_divide(self):
        config = ServiceConfig(workers=4, rate=100.0, max_inflight=10,
                               burst=40.0)
        derived = worker_config(config, 1)
        assert derived.rate == pytest.approx(25.0)
        assert derived.max_inflight == 3  # ceil(10/4): nobody gets zero
        assert derived.worker_index == 1

    def test_burst_share_is_inflated_but_capped(self):
        config = ServiceConfig(workers=4, rate=100.0, burst=40.0)
        derived = worker_config(config, 0)
        assert derived.burst == pytest.approx(10.0 * (1.0 + BURST_SHARE))
        # A tiny burst can never exceed the configured total...
        whole = worker_config(ServiceConfig(workers=1, rate=10.0, burst=2.0), 0)
        assert whole.burst == 2.0
        # ... and never drops below the token-bucket minimum of 1.
        sliver = worker_config(
            ServiceConfig(workers=8, rate=10.0, burst=2.0), 0)
        assert sliver.burst >= 1.0

    def test_unlimited_rate_stays_unlimited(self):
        config = ServiceConfig(workers=4, rate=0.0)
        assert worker_config(config, 0).rate == 0.0

    def test_index_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            worker_config(ServiceConfig(workers=2), 2)


class TestFleet:
    def test_two_workers_serve_and_clean_stop(self):
        with _RunningSupervisor(_config()) as running:
            with ServiceClient("127.0.0.1", running.port) as client:
                health = client.healthz()
                assert health["status"] == "ok"
                assert health["worker"] in (0, 1)
                result = client.x([1.0, 2.0, 4.0])
                assert result["n"] == 3
            pids = running.worker_pids()
        # Clean SIGTERM fan-down: exit 0, no orphans left behind.
        assert running.join() == 0
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if not any(_alive(pid) for pid in pids):
                break
            time.sleep(0.05)
        assert not any(_alive(pid) for pid in pids)

    def test_multi_worker_responses_match_single_worker(self):
        profile = [1.0, 1.5, 2.0, 3.0]
        bodies = {}
        for workers in (1, 2):
            with _RunningSupervisor(_config(workers=workers)) as running:
                with ServiceClient("127.0.0.1", running.port) as client:
                    bodies[workers] = json.dumps(client.x(profile),
                                                 sort_keys=True)
        assert bodies[1] == bodies[2]

    def test_crashed_worker_is_respawned(self):
        with _RunningSupervisor(_config(workers=2),
                                backoff_base=0.05) as running:
            victim = running.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 15.0
            respawned = False
            while time.monotonic() < deadline:
                pids = running.worker_pids()
                if victim not in pids and all(_alive(p) for p in pids):
                    respawned = True
                    break
                time.sleep(0.05)
            assert respawned, "killed worker was not replaced"
            assert running.supervisor.registry.counter(
                "svc_supervisor_restarts_total", "").value(worker=0) >= 1
            # The replacement serves traffic.
            with ServiceClient("127.0.0.1", running.port) as client:
                assert client.healthz()["status"] == "ok"

    def test_respawn_budget_exhaustion_exits_nonzero(self, capfd):
        running = _RunningSupervisor(
            _config(workers=1), backoff_base=0.01, backoff_cap=0.05,
            respawn_budget=2, stable_after=60.0)
        with running:
            # Keep killing whatever comes up until the budget runs out.
            deadline = time.monotonic() + 30.0
            while running.exit_code is None and time.monotonic() < deadline:
                for pid in running.worker_pids():
                    if _alive(pid):
                        try:
                            os.kill(pid, signal.SIGKILL)
                        except ProcessLookupError:
                            pass
                time.sleep(0.02)
        assert running.join() == EXIT_RESPAWN_BUDGET
        assert running.supervisor.exit_reason == "respawn budget exhausted"
        stderr = capfd.readouterr().err
        assert "respawn budget" in stderr and "exhausted" in stderr

    def test_startup_failure_is_fatal_fast_not_a_respawn_storm(
            self, monkeypatch):
        # Forked workers inherit the patched start(), so the first
        # worker fails before it is ready.
        async def failing_start(self, sock=None):
            raise OSError("cannot start")
        monkeypatch.setattr(ReproService, "start", failing_start)
        running = _RunningSupervisor(_config(workers=2))
        spawns = []
        original_spawn = running.supervisor._spawn
        monkeypatch.setattr(running.supervisor, "_spawn",
                            lambda slot: (spawns.append(slot.index),
                                          original_spawn(slot)))
        running._thread.start()
        assert running.join(30.0) == 1
        assert running.supervisor.exit_reason.startswith("startup")
        assert "cannot start" in running.supervisor.exit_reason
        assert spawns == [0]


class TestPortSharing:
    def test_fleet_without_reuseport_refuses_to_start(self, monkeypatch,
                                                      capsys):
        monkeypatch.delattr(socket, "SO_REUSEPORT")
        with pytest.raises(InvalidParameterError, match="SO_REUSEPORT"):
            Supervisor(_config(workers=2))
        assert main(["serve", "--port", "0", "--workers", "2"]) == 2
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0 and "SO_REUSEPORT" in err

    def test_single_worker_needs_no_reuseport(self, monkeypatch):
        monkeypatch.delattr(socket, "SO_REUSEPORT")
        config = ServiceConfig(port=0, no_store=True, no_result_cache=True)
        with ServiceThread(config, registry=MetricsRegistry()) as server:
            with server.client() as client:
                assert client.x([1.0, 2.0])["n"] == 2


def _post_raw(port: int, path: str, payload: dict) -> bytes:
    """One request on a fresh connection (so any worker may answer)."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30.0) as response:
        return response.read()


class TestResponseCache:
    """Each worker's response cache is in memory; none touches disk."""

    def test_fresh_responses_leave_only_metrics_dumps(self):
        config = _config(workers=2, cache_bytes=4 << 20,
                         metrics_flush_interval=0.05)
        with _RunningSupervisor(config) as running:
            run_dir = Path(running.supervisor._run_dir)
            answered = []

            def send(offset: int) -> None:
                with ServiceClient("127.0.0.1", running.port) as client:
                    for i in range(offset, 200, 4):
                        answered.append(
                            client.x([1.0, 1.0 + (i + 1) / 256.0])["n"])

            threads = [threading.Thread(target=send, args=(k,))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads)
            assert answered == [2] * 200
            time.sleep(0.2)  # let both workers flush their metrics once
            left = sorted(p.relative_to(run_dir).as_posix()
                          for p in run_dir.rglob("*"))
        dump = re.compile(r"worker-\d+\.metrics\.json(\.[^/]+\.tmp)?")
        assert left and all(dump.fullmatch(name) for name in left), left

    def test_repeats_are_byte_identical_across_workers(self):
        config = _config(workers=2, cache_bytes=4 << 20)
        payload = {"profile": [1.0, 0.5, 0.25]}
        with _RunningSupervisor(config) as running:
            bodies = {_post_raw(running.port, "/v1/x", payload)
                      for _ in range(16)}
        assert len(bodies) == 1


class TestAggregation:
    def test_aggregate_metrics_carry_worker_labels(self):
        config = _config(workers=2, metrics_port=0,
                         metrics_flush_interval=0.1)
        with _RunningSupervisor(config) as running:
            with ServiceClient("127.0.0.1", running.port) as client:
                for _ in range(3):
                    client.healthz()
            deadline = time.monotonic() + 10.0
            text = ""
            while time.monotonic() < deadline:
                url = (f"http://127.0.0.1:"
                       f"{running.supervisor.metrics_port}/metrics")
                text = urllib.request.urlopen(url).read().decode()
                if 'route="/healthz"' in text and 'worker="' in text:
                    break
                time.sleep(0.1)
            assert 'worker="' in text, "no per-worker series in aggregate"
            url = (f"http://127.0.0.1:"
                   f"{running.supervisor.metrics_port}/healthz")
            fleet = json.loads(urllib.request.urlopen(url).read())
            assert len(fleet["workers"]) == 2
            assert all(w["alive"] for w in fleet["workers"])

    def test_aggregate_reports_each_workers_response_cache(self):
        # Workers set the cache gauges before each registry flush, so
        # the aggregate sees them without a /metrics read per worker.
        config = _config(workers=2, metrics_port=0, cache_bytes=4 << 20,
                         metrics_flush_interval=0.1)
        series = re.compile(
            r'^svc_response_cache_entries\{worker="\d+"\} (\S+)$', re.M)
        with _RunningSupervisor(config) as running:
            with ServiceClient("127.0.0.1", running.port) as client:
                for i in range(4):
                    client.x([1.0, 1.0 + (i + 1) / 8.0])
            url = (f"http://127.0.0.1:"
                   f"{running.supervisor.metrics_port}/metrics")
            deadline = time.monotonic() + 10.0
            held = 0.0
            while time.monotonic() < deadline and held < 4:
                text = urllib.request.urlopen(url).read().decode()
                held = sum(map(float, series.findall(text)))
                time.sleep(0.1)
        assert held == 4
        assert "svc_response_cache_bytes{" in text


class TestSingleFlightEndToEnd:
    def test_duplicate_dispatch_across_workers_computes_once(self, tmp_path):
        """The acceptance criterion: K dispatches, 2 workers, 1 compute.

        Dedup lives on the result cache, which the workers share.  Each
        connection gets its own worker (kernel balancing pins a
        connection to one acceptor), so concurrent clients genuinely
        exercise the cross-process claim protocol.  Exactly one
        response may be the leader; every response must be identical
        modulo the dedup/cached/wall_seconds bookkeeping fields.
        """
        config = _config(workers=2,
                         result_cache_dir=str(tmp_path / "cache"))
        with _RunningSupervisor(config) as running:
            results = [None] * 4
            barrier = threading.Barrier(len(results))

            def dispatch(i: int) -> None:
                with ServiceClient("127.0.0.1", running.port,
                                   timeout=120.0) as client:
                    barrier.wait()
                    results[i] = client.run_experiment("sec4-example")

            threads = [threading.Thread(target=dispatch, args=(i,))
                       for i in range(len(results))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
            assert all(r is not None for r in results)
            outcomes = [r["dedup"] for r in results]
            assert outcomes.count("leader") == 1, outcomes
            assert all(o in ("leader", "follower", "hit")
                       for o in outcomes), outcomes
            payloads = {json.dumps(r["result"], sort_keys=True)
                        for r in results}
            assert len(payloads) == 1  # bit-identical results for all


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True

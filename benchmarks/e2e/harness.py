"""Process control, HTTP transport and statistics for the e2e benchmark.

Everything here is workload-agnostic: booting and reaping the server,
one keep-alive HTTP/1.1 connection over asyncio streams, running the
CLI as a measured child process, and the percentile helper that refuses
to report a tail the sample cannot support.
"""

from __future__ import annotations

import asyncio
import ctypes
import http.client
import math
import os
import re
import signal
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: Seconds a server gets to exit after SIGTERM before it is killed.
STOP_GRACE = 5.0
_PR_SET_PDEATHSIG = 1

_LISTEN = re.compile(rb"serving on http://([^:\s]+):(\d+)")


class BenchmarkError(RuntimeError):
    """The run could not be carried out (as opposed to a wrong answer)."""


class InsufficientSamples(ValueError):
    """A percentile was asked of fewer samples than it needs."""


def min_samples(q: float) -> int:
    """Samples needed so that at least ten lie beyond the ``q`` quantile."""
    return math.ceil(10.0 / (1.0 - q) - 1e-9)


def percentile(values: list[float], q: float) -> float:
    """The ``q`` quantile (nearest rank); refuses under-supported tails.

    p50 needs 20 samples, p99 needs 1,000: below that the estimate
    rests on fewer than ten observations and is not reported.
    """
    need = min_samples(q)
    if len(values) < need:
        raise InsufficientSamples(
            f"p{q * 100:g} needs {need} samples, got {len(values)}")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); a lone value repeats."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def child_env(state: Path) -> dict[str, str]:
    """Environment for every process the benchmark starts.

    All state and cache directories point into ``state`` so each
    workload starts cold and the user's own directories are never read
    or written; the simulation engine is left at its default.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for name, sub in (("REPRO_OBS_DIR", "obs"), ("REPRO_CACHE_DIR", "cache"),
                      ("XDG_STATE_HOME", "xdg-state"),
                      ("XDG_CACHE_HOME", "xdg-cache"), ("TMPDIR", "tmp")):
        path = state / sub
        path.mkdir(parents=True, exist_ok=True)
        env[name] = str(path)
    env.pop("REPRO_SIM_ENGINE", None)
    return env


def _terminate_with_parent() -> None:
    """In the child: receive SIGTERM if the benchmark dies first (Linux)."""
    ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)


class Server:
    """One ``repro.cli serve`` child process.

    ``argv`` must make the server listen on an ephemeral port and
    announce it on stderr, as ``serve --port 0`` does.
    """

    def __init__(self, argv: list[str], state: Path) -> None:
        self.argv = argv
        self.state = state
        self.proc: subprocess.Popen | None = None
        self.host = ""
        self.port = 0
        self._log = state / "server.log"

    def boot(self, timeout: float = 60.0) -> float:
        """Start the server; seconds from spawn to the first 200 on /healthz."""
        env = child_env(self.state)
        with open(self._log, "wb") as log:
            start = time.perf_counter()
            self.proc = subprocess.Popen(
                self.argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=log, start_new_session=True,
                preexec_fn=_terminate_with_parent)
        deadline = start + timeout
        while not self.port:
            if self.proc.poll() is not None:
                raise BenchmarkError(
                    f"server exited with {self.proc.returncode}: "
                    f"{self.log_tail()}")
            if time.perf_counter() > deadline:
                raise BenchmarkError("server did not announce its port")
            found = _LISTEN.search(self._log.read_bytes())
            if found:
                self.host, self.port = found[1].decode(), int(found[2])
            else:
                time.sleep(0.002)
        while True:
            try:
                if self.get("/healthz")[0] == 200:
                    return time.perf_counter() - start
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise BenchmarkError("server never answered /healthz")
            time.sleep(0.002)

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def log_tail(self, size: int = 2000) -> str:
        return self._log.read_bytes()[-size:].decode(errors="replace")

    def stop(self, grace: float = STOP_GRACE) -> int | None:
        """SIGTERM, then SIGKILL after ``grace`` seconds; always waits."""
        proc, self.proc = self.proc, None
        if proc is None:
            return None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(grace)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        try:
            # Pool workers the server forked share its session.
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        return proc.returncode


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process in MiB; 0 once it has exited."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    found = re.search(r"^VmHWM:\s+(\d+) kB", status, re.M)
    return int(found[1]) / 1024.0 if found else 0.0


def run_child(argv: list[str], env: dict[str, str], scratch: Path,
              timeout: float = 120.0) -> tuple[int, bytes, bytes, float, float]:
    """Run one child to completion.

    Returns ``(exit code, stdout, stderr, wall seconds, peak RSS MiB)``.
    The peak is the child's ``VmHWM``, polled every millisecond while it
    runs: its ``ru_maxrss`` would also count the pages it shared with the
    benchmark process before exec.
    """
    out_path, err_path = scratch / "child.out", scratch / "child.err"
    peak = 0.0
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        deadline = start + timeout
        try:
            while proc.poll() is None:
                if time.perf_counter() > deadline:
                    raise BenchmarkError(f"{argv} exceeded {timeout:g} s")
                peak = max(peak, vm_hwm_mb(proc.pid))
                time.sleep(0.001)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    return (proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
            wall, peak)


class Connection:
    """One keep-alive HTTP/1.1 connection; one request in flight at a time.

    Every request carries ``X-Bench-Req`` (its id) and ``X-Bench-Sent``
    (``perf_counter`` at the write), traced run or not, so both runs put
    the same bytes on the wire.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def open(self) -> "Connection":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port)
        return self

    async def close(self) -> None:
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    async def send(self, method: str, path: str, body: bytes,
                   req_id: str) -> float:
        """Write one request; returns the ``perf_counter`` stamp it carries."""
        sent = time.perf_counter()
        head = (f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\nX-Bench-Req: {req_id}\r\n"
                f"X-Bench-Sent: {sent!r}\r\n\r\n")
        self._writer.write(head.encode("ascii") + body)
        await self._writer.drain()
        return sent

    async def receive(self) -> tuple[int, bytes]:
        """Read one response: ``(status, body)``."""
        head = await self._reader.readuntil(b"\r\n\r\n")
        status = int(head[9:12])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, await self._reader.readexactly(length)

    async def request(self, method: str, path: str, body: bytes,
                      req_id: str) -> tuple[int, bytes]:
        """One exchange; status 0 if the connection failed (it is reopened)."""
        try:
            await self.send(method, path, body, req_id)
            return await self.receive()
        except TRANSPORT_ERRORS:
            await self.close()
            await self.open()
            return 0, b""


#: What a failed exchange can raise: a dead or reset connection.
TRANSPORT_ERRORS = (OSError, asyncio.IncompleteReadError,
                    asyncio.LimitOverrunError, ValueError)

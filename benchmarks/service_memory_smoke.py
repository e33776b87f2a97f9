"""Memory smoke test: what a served answer leaves behind does not grow with n,
and answers nobody asks for again are not kept.

Boots ``python -m repro.cli serve --port 0 --no-store --no-cache`` with
the default 4 MiB response cache, answers one small request, and reads
the server's peak resident set (``VmHWM``).  Then it posts ``--rounds``
distinct ``/v1/x`` and ``/v1/allocate`` (FIFO) bodies for a cluster of
``--n`` computers each, reads ``VmHWM`` again, and fails when the peak
grew by ``--max-growth-mb`` or more.

At the defaults (60 rounds, n = 45,000: 0.86 MB request bodies, 2.2 MB
FIFO answers) a server whose response cache or X pool keeps each
request's floats grows by more than 100 MB; the byte-budgeted cache
refuses the oversize answers and keys every request on fixed-size
digests, so the peak stays near one request's working set.

A second phase floods the server with 300 distinct n = 64 FIFO
``/v1/allocate`` bodies (each answer a few KB, small enough to be
stored) and fails unless ``svc_response_cache_bytes`` on ``/metrics``
is then at most ``cache_bytes // 8 + 256``: answers seen once wait in
the cache's one-body probation segment, so a stream without repeats
cannot fill the budget (a cache that stores every first answer ends
near 1 MB).

A third phase boots a fresh server (so the first phases' peak cannot
hide its growth) and posts a ``synthetic_trace`` of a drifting
8-computer cluster to ``/v1/stream/events``, 64 events a post.  It
reads ``VmHWM`` when window 1,000 has closed and again at window
5,000, and fails when the peak grew by 3 MB or more: a session that
keeps a record or an event per window grows by ~5 MB per 1,000 windows
of this cluster, while one that folds its history stays flat.

Usage::

    python benchmarks/service_memory_smoke.py [--rounds 60] [--n 45000]
                                              [--max-growth-mb 48]

Exits 0 when all three checks pass, 1 when any fails.  Needs Linux
(``/proc/<pid>/status``).
"""

from __future__ import annotations

import argparse
import http.client
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_LISTEN = re.compile(rb"serving on http://([^:\s]+):(\d+)")
_CACHE_BYTES = 4 << 20
_FLOOD_BODIES, _FLOOD_N = 300, 64
_STREAM_PROFILE = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3]
_STREAM_CHUNK, _STREAM_BASELINE = 64, 1_000
_STREAM_WINDOWS, _STREAM_MAX_GROWTH_MB = 5_000, 3.0


def _vm_hwm_mb(pid: int) -> float:
    status = Path(f"/proc/{pid}/status").read_text()
    return int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.M)[1]) / 1024.0


def _boot(state: Path) -> tuple[subprocess.Popen, str, int, Path]:
    env = dict(os.environ, REPRO_OBS_DIR=str(state / "obs"),
               REPRO_CACHE_DIR=str(state / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    log = state / "server.log"
    with open(log, "wb") as out:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--no-store", "--no-cache", "--cache-bytes", str(_CACHE_BYTES)],
            env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=out)
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        found = _LISTEN.search(log.read_bytes())
        if found:
            return proc, found[1].decode(), int(found[2]), log
        if proc.poll() is not None:
            break
        time.sleep(0.05)
    proc.kill()
    raise SystemExit(f"server did not start: {log.read_text()[-2000:]}")


def _post(conn: http.client.HTTPConnection, path: str, body: dict) -> bytes:
    conn.request("POST", path, body=json.dumps(body).encode(),
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    answer = response.read()
    if response.status != 200:
        raise SystemExit(f"POST {path} answered {response.status}: "
                         f"{answer[:200]!r}")
    return answer


def _cache_bytes(conn: http.client.HTTPConnection) -> int:
    """``svc_response_cache_bytes`` as the server's ``/metrics`` reports it."""
    conn.request("GET", "/metrics")
    text = conn.getresponse().read().decode()
    return int(float(re.search(r"^svc_response_cache_bytes (\S+)$", text,
                               re.M)[1]))


def _stream_phase() -> tuple[float, float]:
    """``VmHWM`` of a fresh server after stream window 1,000 and after
    window 5,000 of a drifting cluster's trace."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.stream import event_to_dict, synthetic_trace

    trace = synthetic_trace(profile=_STREAM_PROFILE,
                            windows=_STREAM_WINDOWS + 1,
                            drift_worker=2, drift_factor=1.5,
                            drift_window=500)
    marks: dict[int, float] = {}
    with tempfile.TemporaryDirectory(prefix="repro-memsmoke-") as tmp:
        proc, host, port, _ = _boot(Path(tmp))
        try:
            conn = http.client.HTTPConnection(host, port, timeout=120.0)
            body: dict = {"reset": True, "window": 10.0}
            while len(marks) < 2:
                chunk = [event_to_dict(event) for event in
                         itertools.islice(trace, _STREAM_CHUNK)]
                if not chunk:
                    raise SystemExit("stream trace ended before window "
                                     f"{_STREAM_WINDOWS} closed")
                answer = _post(conn, "/v1/stream/events",
                               {**body, "events": chunk})
                body = {}
                closed = json.loads(answer)["state"]["windows_closed"]
                for mark in (_STREAM_BASELINE, _STREAM_WINDOWS):
                    if closed >= mark and mark not in marks:
                        marks[mark] = _vm_hwm_mb(proc.pid)
            conn.close()
        finally:
            proc.terminate()
            proc.wait(timeout=30.0)
    return marks[_STREAM_BASELINE], marks[_STREAM_WINDOWS]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=60)
    parser.add_argument("--n", type=int, default=45_000)
    parser.add_argument("--max-growth-mb", type=float, default=48.0)
    args = parser.parse_args(argv)

    rng = random.Random(25)
    with tempfile.TemporaryDirectory(prefix="repro-memsmoke-") as tmp:
        proc, host, port, _ = _boot(Path(tmp))
        try:
            conn = http.client.HTTPConnection(host, port, timeout=120.0)
            _post(conn, "/v1/x", {"profile": [1.0, 0.5]})
            before = _vm_hwm_mb(proc.pid)
            for _ in range(args.rounds):
                profile = [rng.uniform(0.05, 1.0) for _ in range(args.n)]
                _post(conn, "/v1/x", {"profile": profile})
                _post(conn, "/v1/allocate",
                      {"profile": profile, "lifespan": 3600.0})
            after = _vm_hwm_mb(proc.pid)
            for _ in range(_FLOOD_BODIES):
                profile = [rng.uniform(0.05, 1.0) for _ in range(_FLOOD_N)]
                _post(conn, "/v1/allocate",
                      {"profile": profile, "lifespan": 3600.0})
            flooded = _cache_bytes(conn)
            conn.close()
        finally:
            proc.terminate()
            proc.wait(timeout=30.0)
    growth = after - before
    print(f"VmHWM {before:.1f} -> {after:.1f} MB (+{growth:.1f} MB) over "
          f"{args.rounds} distinct n = {args.n} /v1/x and /v1/allocate "
          f"requests; bound +{args.max_growth_mb:g} MB")
    flood_bound = _CACHE_BYTES // 8 + 256
    print(f"response cache holds {flooded} bytes after {_FLOOD_BODIES} "
          f"distinct n = {_FLOOD_N} /v1/allocate requests; bound "
          f"{flood_bound} bytes")
    base, end = _stream_phase()
    stream_growth = end - base
    print(f"VmHWM {base:.1f} -> {end:.1f} MB (+{stream_growth:.1f} MB) "
          f"from stream window {_STREAM_BASELINE} to {_STREAM_WINDOWS}; "
          f"bound +{_STREAM_MAX_GROWTH_MB:g} MB")
    return 0 if (growth < args.max_growth_mb and flooded <= flood_bound
                 and stream_growth < _STREAM_MAX_GROWTH_MB) else 1


if __name__ == "__main__":
    raise SystemExit(main())

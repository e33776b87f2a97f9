"""Serving-layer throughput benchmark: response cache on vs off.

Boots the service twice on a loopback ephemeral port — once with the
default response cache and once with it off (``cache_bytes=0``) — and
drives both with the same closed-loop multi-threaded herd of hot
evaluation queries (``/v1/x``, ``/v1/hecr``, FIFO and LP
``/v1/allocate``).  Each evaluation is solved inline between the
response cache's lookup and store, so the cache is the server's one
dedup layer: with it on, a herd on a hot question costs one solve, and
the measured difference is that layer's.  The LPs use heavy
communication (τ = 0.5, π = 0.1), which the duality certificate of
:mod:`repro.protocols.general` rejects, so each one is a simplex
solve; a Table-1 LP is certified in well under a millisecond and
would leave the phases measuring the client and HTTP overhead instead of the solves the cache saves.

A third phase overloads a deliberately tiny server (``max_inflight=2``
plus a token bucket) and checks that overload is *shed* — 429/503 with a
``Retry-After`` hint — rather than queued into client timeouts.

Numbers (throughput, p50/p99 latency, cache-hit/shed statistics) land
in ``BENCH_service_throughput.json`` at the repo root, and a rendered
report in ``benchmarks/output/service-throughput.txt``.  With
``REPRO_PERF_CHECK=1`` (the CI ``service`` job) the committed baseline is
left untouched and the cache-on-over-cache-off speedup floor is asserted.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.service import ServiceConfig, ServiceError, ServiceThread

BASELINE_PATH = (Path(__file__).resolve().parent.parent
                 / "BENCH_service_throughput.json")

#: Seconds of closed-loop load per measured phase (the CI mini load test
#: runs two phases plus the shedding phase in roughly five seconds).
_PHASE_SECONDS = float(os.environ.get("REPRO_SVC_BENCH_SECONDS", "2.0"))
_THREADS = 16

#: Required cache-on/cache-off throughput ratio in check mode.  The win
#: comes from sharing work, not from extra cores, so the floor holds on
#: single-core runners too — a hot question costs one solve however
#: many clients ask it.
_SPEEDUP_FLOOR = 1.15

#: One hot cluster, harmonic speeds.
_CLUSTER = tuple(1.0 / (i + 1) for i in range(24))
_NATURAL = tuple(range(len(_CLUSTER)))
_REVERSED = tuple(reversed(_NATURAL))
_ROTATED = _NATURAL[1:] + _NATURAL[:1]

#: Heavy-communication parameters for the LP queries.  At n=24 they fail
#: the duality certificate for all three order pairs, so every LP is a
#: simplex solve of about half a millisecond, the most expensive query
#: of the mix.
_HEAVY = {"tau": 0.5, "pi": 0.1, "delta": 1.0}

#: The request mix, LP-heavy because LP is the expensive hot query.
#: Threads walk it round-robin from different offsets, so at any
#: instant several threads are asking the same hot question — the
#: thundering herd the response cache answers with one solve.
_WORKLOAD = [
    ("x", lambda c: c.x(_CLUSTER)),
    ("lp-natural", lambda c: c.allocate(_CLUSTER, lifespan=200.0,
                                        protocol="lp", params=_HEAVY)),
    ("hecr", lambda c: c.hecr(_CLUSTER)),
    ("lp-reversed", lambda c: c.allocate(_CLUSTER, lifespan=200.0,
                                         protocol="lp", params=_HEAVY,
                                         startup_order=_REVERSED,
                                         finishing_order=_ROTATED)),
    ("work", lambda c: c.work(_CLUSTER, lifespan=200.0)),
    ("lp-rotated", lambda c: c.allocate(_CLUSTER, lifespan=200.0,
                                        protocol="lp", params=_HEAVY,
                                        startup_order=_ROTATED,
                                        finishing_order=_REVERSED)),
]


def _percentile(sorted_values: list[float], q: float) -> float:
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def _load_phase(config: ServiceConfig) -> tuple[dict, dict]:
    """Drive one server with the closed-loop workload.

    Returns ``(stats, responses)`` where ``responses`` maps each
    workload item name to its decoded JSON answer — the cross-phase
    bit-identity check.
    """
    latencies: list[list[float]] = [[] for _ in range(_THREADS)]
    errors: list[str] = []
    registry = MetricsRegistry()
    with ServiceThread(config, registry=registry) as server:
        # One untimed pass first, so that one-off first-request costs
        # (lazy imports of the solvers each route loads) land in neither
        # timed phase.
        with server.client(timeout=30.0) as client:
            for _, call in _WORKLOAD:
                call(client)
        stop_at = time.perf_counter() + _PHASE_SECONDS

        def worker(tid: int) -> None:
            with server.client(timeout=30.0) as client:
                step = tid
                while time.perf_counter() < stop_at:
                    _, call = _WORKLOAD[step % len(_WORKLOAD)]
                    begin = time.perf_counter()
                    try:
                        call(client)
                    except ServiceError as exc:  # any failure voids the run
                        errors.append(str(exc))
                        return
                    latencies[tid].append(time.perf_counter() - begin)
                    step += 1

        start = time.perf_counter()
        threads = [threading.Thread(target=worker, args=(tid,))
                   for tid in range(_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start

        assert not errors, f"load worker failed: {errors[0]}"
        with server.client() as client:
            responses = {name: call(client) for name, call in _WORKLOAD}

    hits = registry.counter("svc_response_cache_hits_total", "")
    flat = sorted(value for bucket in latencies for value in bucket)
    assert flat, "load phase issued no requests"
    stats = {
        "requests": len(flat),
        "seconds": round(elapsed, 4),
        "throughput_rps": round(len(flat) / elapsed, 2),
        "p50_ms": round(_percentile(flat, 0.50) * 1e3, 3),
        "p99_ms": round(_percentile(flat, 0.99) * 1e3, 3),
        "cache_hits": int(sum(sample.value for sample in hits.samples())),
    }
    return stats, responses


def _shed_phase() -> dict:
    """Overload a tiny server; overload must shed, not time out."""
    config = ServiceConfig(port=0, max_inflight=2, rate=150.0, burst=8.0,
                           cache_bytes=0, no_result_cache=True)
    counts = {"attempts": 0, "ok": 0, "shed_429": 0, "shed_503": 0,
              "timeouts": 0}
    hints: list[float] = []
    lock = threading.Lock()
    with ServiceThread(config, registry=MetricsRegistry()) as server:
        stop_at = time.perf_counter() + min(1.5, _PHASE_SECONDS)

        def worker() -> None:
            with server.client(timeout=30.0) as client:
                while time.perf_counter() < stop_at:
                    try:
                        client.allocate(_CLUSTER, lifespan=200.0,
                                        protocol="lp")
                        outcome = "ok"
                    except ServiceError as exc:
                        if exc.shed:
                            outcome = f"shed_{exc.status}"
                            with lock:
                                hints.append(exc.retry_after)
                        else:
                            outcome = "timeouts"
                    with lock:
                        counts["attempts"] += 1
                        counts[outcome] += 1

        threads = [threading.Thread(target=worker) for _ in range(_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        shed_counter = server.service.registry.counter("svc_shed_total", "")
        shed_metric = sum(sample.value for sample in shed_counter.samples())

    counts["shed_total_metric"] = int(shed_metric)
    counts["retry_after_hinted"] = bool(hints) and all(h > 0 for h in hints)
    return counts


def test_service_throughput(report_sink):
    check_mode = os.environ.get("REPRO_PERF_CHECK", "") == "1"

    cache_off, cache_off_responses = _load_phase(ServiceConfig(
        port=0, cache_bytes=0, no_result_cache=True))
    cache_on, cache_on_responses = _load_phase(ServiceConfig(
        port=0, no_result_cache=True))
    speedup = cache_on["throughput_rps"] / cache_off["throughput_rps"]

    # Bit-identity first: a throughput win that moves floats is a bug.
    assert cache_on_responses == cache_off_responses, \
        "cache-on and cache-off responses differ"
    # The response cache must actually have answered the herd.
    assert cache_on["cache_hits"] > 0

    shed = _shed_phase()
    assert shed["shed_429"] + shed["shed_503"] > 0, \
        "overload produced no shedding"
    assert shed["timeouts"] == 0, \
        f"overload timed {shed['timeouts']} requests out instead of shedding"
    assert shed["ok"] > 0, "admission control admitted nothing"
    assert shed["retry_after_hinted"], "shed responses lacked Retry-After"
    assert shed["shed_total_metric"] == shed["shed_429"] + shed["shed_503"], \
        "svc_shed_total disagrees with the client's shed count"

    record = {
        "threads": _THREADS,
        "phase_seconds": _PHASE_SECONDS,
        "cluster_size": len(_CLUSTER),
        "lp_params": _HEAVY,
        "workload": [name for name, _ in _WORKLOAD],
        "cache_off": cache_off,
        "cache_on": cache_on,
        "speedup": round(speedup, 4),
        "speedup_floor": _SPEEDUP_FLOOR,
        "shed": shed,
    }
    if not check_mode:
        BASELINE_PATH.write_text(json.dumps(record, indent=2) + "\n")

    report_sink("service-throughput", "\n".join([
        "service throughput benchmark "
        f"({_THREADS} threads, {_PHASE_SECONDS:g} s/phase)",
        f"  cache off   {cache_off['throughput_rps']:9.1f} rps   "
        f"p50 {cache_off['p50_ms']:7.2f} ms   p99 {cache_off['p99_ms']:7.2f} ms",
        f"  cache on    {cache_on['throughput_rps']:9.1f} rps   "
        f"p50 {cache_on['p50_ms']:7.2f} ms   p99 {cache_on['p99_ms']:7.2f} ms",
        f"  speedup     x{speedup:.2f} (floor x{_SPEEDUP_FLOOR}, "
        f"cache hits {cache_on['cache_hits']})",
        f"  shedding    {shed['ok']} ok, {shed['shed_429']} x 429, "
        f"{shed['shed_503']} x 503, {shed['timeouts']} timeouts "
        f"of {shed['attempts']} attempts",
    ]))

    if check_mode:
        assert speedup >= _SPEEDUP_FLOOR, (
            f"the response cache was only {speedup:.2f}x the cache-off "
            f"server (floor {_SPEEDUP_FLOOR}x)")

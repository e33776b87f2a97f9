"""Serving-layer throughput benchmark: micro-batched vs unbatched.

Boots the service twice on a loopback ephemeral port — once with the
micro-batching coalescer on (``max_batch=64``) and once strictly
unbatched (``max_batch=1``) — and drives both with the same closed-loop
multi-threaded workload of hot evaluation queries (``/v1/x``, ``/v1/hecr``,
FIFO and LP ``/v1/allocate``).  The response cache is disabled in both
phases so the measured difference is the coalescer's: request collapsing,
the shared ``XEvaluator`` pool, and grouped ``lp_allocation_many`` solves.

A third phase overloads a deliberately tiny server (``max_inflight=2``
plus a token bucket) and checks that overload is *shed* — 429/503 with a
``Retry-After`` hint — rather than queued into client timeouts.

Numbers (throughput, p50/p99 latency, batch/shed statistics) land in
``BENCH_service_throughput.json`` at the repo root, and a rendered report
in ``benchmarks/output/service-throughput.txt``.  With
``REPRO_PERF_CHECK=1`` (the CI ``service`` job) the committed baseline is
left untouched and the batched-over-unbatched speedup floor is asserted.
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

#: Required batched/unbatched throughput ratio in check mode.  The win
#: comes from sharing work, not from extra cores, so the floor holds on
#: single-core runners too — collapsed duplicates and grouped LP solves
#: cost one evaluation however many clients wait on them.
_SPEEDUP_FLOOR = 1.15

#: One hot cluster, harmonic speeds.  At n=24 an LP solve costs a few
#: milliseconds — enough to dominate per-request HTTP overhead, small
#: enough that grouped ``lp_allocation_many`` still amortises the
#: constraint assembly (at much larger n the solver itself dominates
#: and grouping stops paying).
_CLUSTER = tuple(1.0 / (i + 1) for i in range(24))
_NATURAL = tuple(range(len(_CLUSTER)))
_REVERSED = tuple(reversed(_NATURAL))
_ROTATED = _NATURAL[1:] + _NATURAL[:1]

#: The request mix, LP-heavy because LP is the expensive hot query.
#: Threads walk it round-robin from different offsets, so at any
#: instant several threads are asking the same hot question — the
#: thundering herd the coalescer exists to collapse — while the three
#: distinct LP order pairs exercise grouped solving.
_WORKLOAD = [
    ("x", lambda c: c.x(_CLUSTER)),
    ("lp-natural", lambda c: c.allocate(_CLUSTER, lifespan=200.0,
                                        protocol="lp")),
    ("hecr", lambda c: c.hecr(_CLUSTER)),
    ("lp-reversed", lambda c: c.allocate(_CLUSTER, lifespan=200.0,
                                         protocol="lp",
                                         startup_order=_REVERSED,
                                         finishing_order=_ROTATED)),
    ("work", lambda c: c.work(_CLUSTER, lifespan=200.0)),
    ("lp-rotated", lambda c: c.allocate(_CLUSTER, lifespan=200.0,
                                        protocol="lp",
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
    with ServiceThread(config, registry=MetricsRegistry()) as server:
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

        batcher = server.service.batcher
        solver = batcher.solver
        flat = sorted(value for bucket in latencies for value in bucket)
        assert flat, "load phase issued no requests"
        stats = {
            "requests": len(flat),
            "seconds": round(elapsed, 4),
            "throughput_rps": round(len(flat) / elapsed, 2),
            "p50_ms": round(_percentile(flat, 0.50) * 1e3, 3),
            "p99_ms": round(_percentile(flat, 0.99) * 1e3, 3),
            "batches": batcher.batches,
            "mean_batch_size": round(batcher.requests
                                     / max(1, batcher.batches), 3),
            "collapsed": solver.collapsed,
            "lp_grouped": solver.lp_grouped,
        }
    return stats, responses


def _shed_phase() -> dict:
    """Overload a tiny server; overload must shed, not time out."""
    config = ServiceConfig(port=0, max_inflight=2, rate=150.0, burst=8.0,
                           cache_ttl=0.0, no_result_cache=True)
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

    unbatched, unbatched_responses = _load_phase(ServiceConfig(
        port=0, max_batch=1,
        cache_ttl=0.0, no_result_cache=True))
    batched, batched_responses = _load_phase(ServiceConfig(
        port=0, max_batch=64,
        cache_ttl=0.0, no_result_cache=True))
    speedup = batched["throughput_rps"] / unbatched["throughput_rps"]

    # Bit-identity first: a throughput win that moves floats is a bug.
    assert batched_responses == unbatched_responses, \
        "batched and unbatched responses differ"
    # The coalescer must actually have coalesced under this load.
    assert batched["mean_batch_size"] > 1.0
    assert batched["collapsed"] > 0

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
        "workload": [name for name, _ in _WORKLOAD],
        "unbatched": unbatched,
        "batched": batched,
        "speedup": round(speedup, 4),
        "speedup_floor": _SPEEDUP_FLOOR,
        "shed": shed,
    }
    if not check_mode:
        BASELINE_PATH.write_text(json.dumps(record, indent=2) + "\n")

    report_sink("service-throughput", "\n".join([
        "service throughput benchmark "
        f"({_THREADS} threads, {_PHASE_SECONDS:g} s/phase)",
        f"  unbatched   {unbatched['throughput_rps']:9.1f} rps   "
        f"p50 {unbatched['p50_ms']:7.2f} ms   p99 {unbatched['p99_ms']:7.2f} ms",
        f"  batched     {batched['throughput_rps']:9.1f} rps   "
        f"p50 {batched['p50_ms']:7.2f} ms   p99 {batched['p99_ms']:7.2f} ms",
        f"  speedup     x{speedup:.2f} (floor x{_SPEEDUP_FLOOR}, "
        f"mean batch {batched['mean_batch_size']:.1f}, "
        f"collapsed {batched['collapsed']}, "
        f"lp grouped {batched['lp_grouped']})",
        f"  shedding    {shed['ok']} ok, {shed['shed_429']} x 429, "
        f"{shed['shed_503']} x 503, {shed['timeouts']} timeouts "
        f"of {shed['attempts']} attempts",
    ]))

    if check_mode:
        assert speedup >= _SPEEDUP_FLOOR, (
            f"micro-batching was only {speedup:.2f}x the unbatched server "
            f"(floor {_SPEEDUP_FLOOR}x)")

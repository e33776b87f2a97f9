"""Multi-worker scale-out benchmark: ``serve --workers N`` throughput.

Boots the pre-fork supervisor at 1, 2, and 4 workers on a loopback
ephemeral port and drives each fleet with the same closed-loop
multi-threaded workload of hot evaluation queries as the service
throughput bench (``/v1/x``, ``/v1/hecr``, FIFO and LP
``/v1/allocate``).  Response and shared caches are disabled so the
measured difference is the scale-out itself: N event loops accepting
from N ``SO_REUSEPORT`` sockets.  Every phase must answer the workload
bit-identically — a worker count that moves floats is a bug.

A final overload phase points the closed loop at a 2-worker fleet with
deliberately tiny *cluster-total* admission budgets (which the
supervisor splits per worker) and checks that overload is shed — 429 or
503 with a ``Retry-After`` hint — rather than queued into client
timeouts, and that the per-worker ``svc_shed_total`` series aggregate
to the client-observed shed count.

Numbers land in ``BENCH_workers_scaling.json`` at the repo root, plus a
machine-measured copy in ``benchmarks/output/workers-scaling-measured.json``
for the CI drift watchdog (``obs compare`` over the machine-independent
``scaleout_cost_ratio`` keys: rps(1 worker)/rps(N workers), lower is
better).  With ``REPRO_PERF_CHECK=1`` the committed baseline is left
untouched and the gates are asserted instead: at least
``_KEEP_FRACTION`` of the committed 2-worker speedup, and the absolute
``_SPEEDUP_FLOOR`` whenever the machine has cores to scale onto.
Kernel SO_REUSEPORT balancing distributes *connections*, not requests,
so the closed loop keeps many more connections than workers open.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from repro.service import ServiceConfig, ServiceError
from repro.service.client import ServiceClient
from repro.service.supervisor import Supervisor

BASELINE_PATH = (Path(__file__).resolve().parent.parent
                 / "BENCH_workers_scaling.json")
MEASURED_PATH = Path(__file__).resolve().parent / "output" \
    / "workers-scaling-measured.json"

#: Seconds of closed-loop load per worker-count phase.
_PHASE_SECONDS = float(os.environ.get("REPRO_WORKERS_BENCH_SECONDS", "2.0"))
_THREADS = 16
_WORKER_COUNTS = (1, 2, 4)

#: Required 2-worker/1-worker throughput ratio in check mode.  Unlike
#: the response-cache floor this win *is* extra cores: it is only
#: asserted when the machine has at least two of them (CI runners do).
#: Single-core machines still run every correctness assert and record
#: honest numbers with ``floor_armed: false``.
_SPEEDUP_FLOOR = 1.7

#: Check mode must also keep at least this fraction of the *committed*
#: 2-worker speedup, so a scaling regression is caught even where the
#: absolute floor is disarmed.
_KEEP_FRACTION = 0.5

#: Same hot cluster and request shapes as bench_service_throughput.py,
#: walked round-robin from per-thread offsets, but with Table-1 LPs:
#: the duality certificate solves each in well under a millisecond.
_CLUSTER = tuple(1.0 / (i + 1) for i in range(24))
_NATURAL = tuple(range(len(_CLUSTER)))
_REVERSED = tuple(reversed(_NATURAL))
_ROTATED = _NATURAL[1:] + _NATURAL[:1]

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


class _Fleet:
    """A supervisor fleet on a background thread, torn down on exit."""

    def __init__(self, config: ServiceConfig) -> None:
        self.supervisor = Supervisor(config, install_signals=False)
        self.exit_code: int | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        self.exit_code = self.supervisor.run()

    def __enter__(self) -> "_Fleet":
        self._thread.start()
        self.port = self.supervisor.wait_ready(60.0)
        return self

    def __exit__(self, *exc_info) -> None:
        self.supervisor.initiate_stop()
        self._thread.join(timeout=60.0)

    def client(self, timeout: float = 30.0) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, timeout=timeout)


def _fleet_config(workers: int, **overrides) -> ServiceConfig:
    defaults = dict(port=0, workers=workers, cache_bytes=0,
                    no_result_cache=True, no_store=True, drain_timeout=5.0)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def _scaling_phase(workers: int) -> tuple[dict, dict]:
    """Drive one fleet with the closed-loop workload.

    Returns ``(stats, responses)`` where ``responses`` maps each
    workload item name to its decoded JSON answer — the cross-phase
    bit-identity check.
    """
    latencies: list[list[float]] = [[] for _ in range(_THREADS)]
    errors: list[str] = []
    with _Fleet(_fleet_config(workers)) as fleet:
        stop_at = time.perf_counter() + _PHASE_SECONDS

        def worker(tid: int) -> None:
            with fleet.client() as client:
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
        with fleet.client() as client:
            responses = {name: call(client) for name, call in _WORKLOAD}

        flat = sorted(value for bucket in latencies for value in bucket)
        assert flat, "load phase issued no requests"
        stats = {
            "workers": workers,
            "requests": len(flat),
            "seconds": round(elapsed, 4),
            "throughput_rps": round(len(flat) / elapsed, 2),
            "p50_ms": round(_percentile(flat, 0.50) * 1e3, 3),
            "p99_ms": round(_percentile(flat, 0.99) * 1e3, 3),
        }
    assert fleet.exit_code == 0, \
        f"fleet exited {fleet.exit_code} after the load phase"
    return stats, responses


def _overload_phase() -> dict:
    """Overload a tiny 2-worker fleet; overload must shed, not time out.

    The budgets are cluster totals — the supervisor hands each worker
    its share — so this also proves split budgets still shed cleanly.
    """
    config = _fleet_config(2, max_inflight=2, rate=150.0, burst=8.0,
                           metrics_flush_interval=0.1)
    counts = {"attempts": 0, "ok": 0, "shed_429": 0, "shed_503": 0,
              "timeouts": 0}
    hints: list[float] = []
    lock = threading.Lock()
    with _Fleet(config) as fleet:
        stop_at = time.perf_counter() + min(1.5, _PHASE_SECONDS)

        def worker() -> None:
            with fleet.client() as client:
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

        # The per-worker svc_shed_total series (flushed to disk, merged
        # by the supervisor) must aggregate to what the clients saw.
        client_sheds = counts["shed_429"] + counts["shed_503"]
        deadline = time.monotonic() + 10.0
        metric_sheds = -1
        while time.monotonic() < deadline:
            aggregate = fleet.supervisor.aggregate_registry()
            counter = aggregate.counter("svc_shed_total", "")
            metric_sheds = int(sum(s.value for s in counter.samples()))
            if metric_sheds >= client_sheds:
                break
            time.sleep(0.1)

    counts["shed_total_metric"] = metric_sheds
    counts["retry_after_hinted"] = bool(hints) and all(h > 0 for h in hints)
    return counts


def test_workers_scaling(report_sink):
    check_mode = os.environ.get("REPRO_PERF_CHECK", "") == "1"
    cpu_count = os.cpu_count() or 1
    floor_armed = cpu_count >= 2

    phases: dict[int, dict] = {}
    answers: dict[int, dict] = {}
    for workers in _WORKER_COUNTS:
        phases[workers], answers[workers] = _scaling_phase(workers)

    # Bit-identity first: every fleet size answers the workload with
    # exactly the same floats, or the scale-out is broken.
    base_answers = answers[_WORKER_COUNTS[0]]
    for workers in _WORKER_COUNTS[1:]:
        assert answers[workers] == base_answers, \
            f"{workers}-worker responses differ from 1-worker responses"

    rps = {w: phases[w]["throughput_rps"] for w in _WORKER_COUNTS}
    speedup_2 = rps[2] / rps[1]
    speedup_4 = rps[4] / rps[1]

    shed = _overload_phase()
    assert shed["shed_429"] + shed["shed_503"] > 0, \
        "overload produced no shedding"
    assert shed["timeouts"] == 0, \
        f"overload timed {shed['timeouts']} requests out instead of shedding"
    assert shed["ok"] > 0, "admission control admitted nothing"
    assert shed["retry_after_hinted"], "shed responses lacked Retry-After"
    assert shed["shed_total_metric"] >= shed["shed_429"] + shed["shed_503"], \
        "aggregated svc_shed_total lost shed events across workers"

    if floor_armed:
        note = f"floor x{_SPEEDUP_FLOOR} armed: {cpu_count} cores available"
    else:
        note = (f"floor not asserted: only {cpu_count} core(s) available, "
                "multi-worker speedup is not physically possible")
    record = {
        "cpu_count": cpu_count,
        "threads": _THREADS,
        "phase_seconds": _PHASE_SECONDS,
        "cluster_size": len(_CLUSTER),
        "workload": [name for name, _ in _WORKLOAD],
        "phases": {str(w): phases[w] for w in _WORKER_COUNTS},
        "speedup_2": round(speedup_2, 4),
        "speedup_4": round(speedup_4, 4),
        # rps(1 worker)/rps(N workers): the cost of asking one worker to
        # do an N-worker fleet's job.  Lower is better, so the drift
        # watchdog (which flags increases) catches scaling regressions
        # without raw-seconds machine noise.
        "scaleout_cost_ratio_2w": round(rps[1] / rps[2], 4),
        "scaleout_cost_ratio_4w": round(rps[1] / rps[4], 4),
        "speedup_floor": _SPEEDUP_FLOOR,
        "floor_armed": floor_armed,
        "shed": shed,
        "note": note,
    }
    MEASURED_PATH.parent.mkdir(exist_ok=True)
    MEASURED_PATH.write_text(json.dumps(record, indent=2) + "\n")
    if not check_mode:
        BASELINE_PATH.write_text(json.dumps(record, indent=2) + "\n")

    lines = ["workers scaling benchmark "
             f"({_THREADS} threads, {_PHASE_SECONDS:g} s/phase, "
             f"{cpu_count} cores)"]
    for workers in _WORKER_COUNTS:
        stats = phases[workers]
        lines.append(
            f"  workers={workers}   {stats['throughput_rps']:9.1f} rps   "
            f"p50 {stats['p50_ms']:7.2f} ms   p99 {stats['p99_ms']:7.2f} ms")
    lines.append(
        f"  speedup     x{speedup_2:.2f} at 2 workers, x{speedup_4:.2f} "
        f"at 4 (floor x{_SPEEDUP_FLOOR}, "
        f"{'armed' if floor_armed else 'disarmed'})")
    lines.append(
        f"  shedding    {shed['ok']} ok, {shed['shed_429']} x 429, "
        f"{shed['shed_503']} x 503, {shed['timeouts']} timeouts "
        f"of {shed['attempts']} attempts")
    report_sink("workers-scaling", "\n".join(lines))

    if check_mode:
        committed = json.loads(BASELINE_PATH.read_text())
        keep = _KEEP_FRACTION * committed["speedup_2"]
        assert speedup_2 >= keep, (
            f"2-worker speedup {speedup_2:.2f}x kept less than "
            f"{_KEEP_FRACTION:.0%} of the committed {committed['speedup_2']}x")
        if floor_armed:
            assert speedup_2 >= _SPEEDUP_FLOOR, (
                f"2 workers were only {speedup_2:.2f}x one worker "
                f"(floor {_SPEEDUP_FLOOR}x on a {cpu_count}-core machine)")

"""The six workloads: load generators, answer checks and their metrics.

:func:`run_workload` boots the server three times (``setup_s`` is the
median boot), warms the third boot up for a second on ``seed + 1``,
drives the timed phase on ``seed``, stops the server, checks the
answers and returns the workload's metrics.  All load comes from one
single-threaded asyncio loop over at most two keep-alive connections.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import ledger
from harness import (HERE, STOP_GRACE, BenchmarkError, Connection,
                     InsufficientSamples, Server, child_env,
                     min_samples, percentile, run_child, vm_hwm_mb)

WORKLOADS = ("trickle", "saturate", "hot", "stream", "dispatch", "cli")
OPEN_LOOP = ("trickle", "hot")
#: Workloads that report p99_ms (each yields at least 1,000 samples).
TAIL_WORKLOADS = ("trickle", "saturate", "hot", "stream")
WARMUP_SECONDS = 1.0
BOOTS = 3
#: An open-loop run is invalid if the generator ran later than this at
#: p99.  On a shared 2-vCPU VM an idle process's timer wake-ups alone
#: run 4-6 ms late at p99, and 7-13 ms with the server busy beside it,
#: so a tighter limit judges the host; past this one the generator
#: stalled.  Requests are timed from when they were due either way.
MAX_LATE_P99_MS = 50.0
#: Granularity of the event loop's timers.
TIMER_SLACK = 0.001
#: Every VERIFY_EVERY-th evaluation answer is re-solved in-process.
VERIFY_EVERY = 10
#: How long a traced server may take to write its spans on SIGTERM.
TRACED_STOP_GRACE = 60.0
#: Stream posts prepared per second of run, above the rate seen today.
STREAM_PREPARED_RATE = 300
#: Saturate requests prepared per client and second of run; more are
#: generated on demand.
SATURATE_PREPARED_RATE = 150


@dataclass
class Phase:
    """What one timed phase observed."""

    #: Request id → seconds, for requests answered 2xx.
    latency: dict[str, float] = field(default_factory=dict)
    sent: int = 0
    failed: int = 0
    mismatches: int = 0
    wall: float = 0.0
    #: Operations completed: requests, or events for ``stream``.
    work: int = 0
    #: Open loop: how late the generator woke for each send, seconds.
    late: list[float] = field(default_factory=list)
    #: Answers kept for the checks that follow the phase.
    checks: list = field(default_factory=list)
    #: Request ids by class, e.g. ``cold``/``hit`` dispatches.
    classes: dict[str, set[str]] = field(default_factory=dict)
    #: Per-layer values the client measures itself.
    layers: dict[str, float] = field(default_factory=dict)
    rss_mb: float = 0.0

    def finish(self, req: str, status: int, seconds: float) -> bool:
        self.sent += 1
        if 200 <= status < 300:
            self.latency[req] = seconds
            return True
        self.failed += 1
        return False


# ---------------------------------------------------------------------------
# load generators
# ---------------------------------------------------------------------------

async def _open_loop(server: Server, times: list[float], asks: list,
                     prefix: str, keep) -> Phase:
    """Send ``asks[i]`` at ``times[i]``; time each from when it was due."""
    phase = Phase()
    pool: asyncio.Queue = asyncio.Queue()
    for _ in range(2):
        pool.put_nowait(await Connection(server.host, server.port).open())

    async def fire(i: int, origin: float, path: str, body: bytes) -> None:
        conn = await pool.get()
        try:
            status, answer = await conn.request("POST", path, body,
                                                f"{prefix}{i}")
        finally:
            pool.put_nowait(conn)
        if phase.finish(f"{prefix}{i}", status,
                        time.perf_counter() - origin):
            phase.work += 1
            if keep(i, body):
                phase.checks.append((path, body, answer))

    tasks = []
    start = time.perf_counter() + 0.01
    for i, (offset, (path, body)) in enumerate(zip(times, asks)):
        due = start + offset
        # The loop's timers round up to whole milliseconds, so aim one
        # early: a send leaves at most that much before it is due, and a
        # late one is timed from when it was due.
        delay = due - time.perf_counter() - TIMER_SLACK
        if delay > 0:
            await asyncio.sleep(delay)
        woke = time.perf_counter()
        phase.late.append(max(0.0, woke - due))
        tasks.append(asyncio.create_task(fire(i, min(woke, due), path,
                                              body)))
    await asyncio.gather(*tasks)
    phase.wall = time.perf_counter() - start
    while not pool.empty():
        await pool.get_nowait().close()
    return phase


async def _closed_loop(server: Server, clients: list, seconds: float,
                       prefix: str) -> Phase:
    """Each client sends its requests back to back until time is up."""
    phase = Phase()
    start = time.perf_counter()
    end = start + seconds

    async def client(k: int, asks) -> None:
        conn = await Connection(server.host, server.port).open()
        try:
            for j, (path, body) in enumerate(asks):
                if time.perf_counter() >= end:
                    return
                req = f"{prefix}{k}.{j}"
                sent = time.perf_counter()
                status, answer = await conn.request("POST", path, body, req)
                if phase.finish(req, status, time.perf_counter() - sent):
                    phase.work += 1
                    if j % VERIFY_EVERY == 0:
                        phase.checks.append((path, body, answer))
        finally:
            await conn.close()

    await asyncio.gather(*(client(k, asks) for k, asks in enumerate(clients)))
    phase.wall = time.perf_counter() - start
    return phase


async def _stream_loop(server: Server, seed: int, seconds: float,
                       prefix: str) -> Phase:
    """Post the trace chunk by chunk over one connection.

    The chunks are built before the clock starts (building them while a
    post is in flight slows the server it shares the machine with); a
    server faster than ``STREAM_PREPARED_RATE`` posts per second ends
    the phase early.
    """
    phase = Phase()
    bodies = list(itertools.islice(inputs.stream_posts(seed), math.ceil(
        STREAM_PREPARED_RATE * seconds)))
    conn = await Connection(server.host, server.port).open()
    start = time.perf_counter()
    end = start + seconds
    try:
        for j, body in enumerate(bodies):
            if time.perf_counter() >= end:
                break
            req = f"{prefix}{j}"
            sent = time.perf_counter()
            status, answer = await conn.request("POST", "/v1/stream/events",
                                                body, req)
            if not phase.finish(req, status, time.perf_counter() - sent):
                raise BenchmarkError(f"stream post {j} answered {status}: "
                                     f"{answer[:200]!r}")
            phase.work += inputs.STREAM_CHUNK
            phase.checks.append((body, answer))
    finally:
        await conn.close()
    phase.wall = time.perf_counter() - start
    return phase


async def _dispatch_loop(server: Server, seed: int, seconds: float,
                         prefix: str) -> Phase:
    """Cold and repeated experiment dispatches over one connection."""
    phase = Phase(classes={"cold": set(), "hit": set()})
    path = f"/v1/experiments/{inputs.DISPATCH_EXPERIMENT}"
    conn = await Connection(server.host, server.port).open()
    start = time.perf_counter()
    end = start + seconds
    try:
        for j, (kind, experiment_seed, body) in enumerate(
                inputs.dispatch(seed)):
            if time.perf_counter() >= end:
                break
            req = f"{prefix}{j}"
            sent = time.perf_counter()
            status, answer = await conn.request("POST", path, body, req)
            if phase.finish(req, status, time.perf_counter() - sent):
                phase.work += 1
                phase.classes[kind].add(req)
                phase.checks.append((kind, experiment_seed, answer))
    finally:
        await conn.close()
    phase.wall = time.perf_counter() - start
    return phase


def _keep_every(i: int, body: bytes) -> bool:
    return i % VERIFY_EVERY == 0


def _keep_every_and_lp(i: int, body: bytes) -> bool:
    return i % VERIFY_EVERY == 0 or b'"protocol":"lp"' in body


async def _drive(name: str, server: Server, seed: int, seconds: float,
                 prefix: str) -> Phase:
    if name == "trickle":
        times, asks = inputs.trickle(seed, seconds)
        return await _open_loop(server, times, asks, prefix,
                                _keep_every_and_lp)
    if name == "hot":
        times, asks = inputs.hot(seed, seconds)
        return await _open_loop(server, times, asks, prefix, _keep_every)
    if name == "saturate":
        prepared = round(SATURATE_PREPARED_RATE * seconds)
        clients = []
        for k in range(inputs.SATURATE_CLIENTS):
            asks = inputs.saturate(seed, k)
            clients.append(itertools.chain(
                list(itertools.islice(asks, prepared)), asks))
        return await _closed_loop(server, clients, seconds, prefix)
    if name == "stream":
        return await _stream_loop(server, seed, seconds, prefix)
    if name == "dispatch":
        return await _dispatch_loop(server, seed, seconds, prefix)
    raise ValueError(f"unknown workload {name!r}")


async def _warm_then_time(name: str, server: Server, seed: int,
                          seconds: float) -> Phase:
    await _drive(name, server, seed + 1, WARMUP_SECONDS, "w")
    return await _drive(name, server, seed, seconds, "t")


# ---------------------------------------------------------------------------
# answer checks (untimed, after the phase)
# ---------------------------------------------------------------------------

def _as_json(value):
    return json.loads(json.dumps(value))


def check_eval(checks: list) -> int:
    """Re-solve each kept request alone; count answers that differ.

    The coalescer promises that every answer equals what the same
    request gets in a batch of one, so equality is exact.
    """
    from repro.service.app import parse_eval_payload
    from repro.service.coalescer import solve_batch

    bad = 0
    for path, body, answer in checks:
        kind = path.rsplit("/", 1)[-1]
        payload = parse_eval_payload(kind, json.loads(body))
        ok, value = solve_batch([(kind, payload)])[0]
        bad += not ok or json.loads(answer) != _as_json(value)
    return bad


def check_stream(checks: list, phase: Phase) -> int:
    """Replay the posted events in-process; count differing window records."""
    from repro.stream import StreamProcessor, event_from_dict

    posts = [json.loads(body) for body, _ in checks]
    processor = StreamProcessor(posts[0]["window"],
                                what_if=posts[0]["what_if"])
    expected = []
    for post in posts:
        for event in post["events"]:
            expected.extend(processor.feed(event_from_dict(event)))
    documents = [json.loads(answer) for _, answer in checks]
    got = [record for doc in documents for record in doc["windows"]]
    expected = _as_json(expected)
    state = documents[-1]["state"]
    phase.layers["stream.windows_per_post"] = len(got) / len(documents)
    phase.layers["stream.late_ratio"] = (state["late_events"]
                                         / state["events_total"])
    return (sum(a != b for a, b in zip(got, expected))
            + abs(len(got) - len(expected)))


def _without_run_stats(result: dict) -> dict:
    # metadata.obs holds the run's own wall time and RSS.
    metadata = {k: v for k, v in result["metadata"].items() if k != "obs"}
    return {**result, "metadata": metadata}


def check_dispatch(checks: list, phase: Phase) -> int:
    """Repeats must equal their cold answer; one seed must equal jobs=1."""
    from repro.batch import run_batch
    from repro.io import result_to_dict

    documents = [(kind, seed, json.loads(answer))
                 for kind, seed, answer in checks]
    cold = {seed: doc["result"] for kind, seed, doc in documents
            if kind == "cold"}
    bad = sum(doc["result"] != cold.get(seed) for kind, seed, doc in documents
              if kind == "hit")
    phase.layers["batch.cached_ratio"] = (
        sum(doc["cached"] for _, _, doc in documents) / len(documents))
    sampled = min(cold)
    batch = run_batch([inputs.DISPATCH_EXPERIMENT], jobs=1, kwargs_by_id={
        inputs.DISPATCH_EXPERIMENT: inputs.dispatch_kwargs(sampled)})
    local = _as_json(result_to_dict(batch.items[0].result))
    bad += _without_run_stats(local) != _without_run_stats(cold[sampled])
    return bad


def _check(name: str, phase: Phase) -> int:
    if not phase.checks:
        return 0
    if name == "stream":
        return check_stream(phase.checks, phase)
    if name == "dispatch":
        return check_dispatch(phase.checks, phase)
    return check_eval(phase.checks)


# ---------------------------------------------------------------------------
# the cli workload
# ---------------------------------------------------------------------------

def import_times(stderr: bytes) -> tuple[float, float]:
    """``-X importtime`` → (top-level cumulative ms, scipy.optimize ms)."""
    total = scipy = 0
    for line in stderr.decode("utf-8", "replace").splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 \
                or not parts[1].strip().isdigit():
            continue
        cumulative, name = int(parts[1]), parts[2]
        if name[1:2] != " ":
            total += cumulative
        if name.strip() == "scipy.optimize":
            scipy = cumulative
    return total / 1e3, scipy / 1e3


def _cli_phase(seed: int, seconds: float, traced: bool, state: Path) -> Phase:
    """One untimed pass, then passes until time is up and p50 is supported."""
    env = child_env(state)
    py = sys.executable
    commands = inputs.cli(seed, state)

    def argv(args: list[str]) -> list[str]:
        flags = ["-X", "importtime"] if traced else []
        return [py, *flags, "-m", "repro.cli", *args]

    reference = {}
    for name, args in commands:
        code, out, err, _, _ = run_child(argv(args), env, state)
        if code != 0:
            raise BenchmarkError(f"cli {name} exited {code}: {err[-500:]!r}")
        reference[name] = out

    phase = Phase()
    imports: dict[str, list[tuple[float, float, float]]] = {
        name: [] for name, _ in commands}
    start = time.perf_counter()
    for k in itertools.count():
        if (time.perf_counter() - start >= seconds
                and phase.sent >= min_samples(0.5)):
            break
        for name, args in commands:
            req = f"t{k}.{name}"
            code, out, err, wall, rss = run_child(argv(args), env, state)
            if phase.finish(req, 0 if code else 200, wall):
                phase.work += 1
                phase.rss_mb = max(phase.rss_mb, rss)
                phase.mismatches += out != reference[name]
                imports[name].append((wall, *import_times(err)))
    phase.wall = time.perf_counter() - start

    if traced:
        interp = statistics.median(
            run_child([py, "-c", "pass"], env, state)[3] for _ in range(5))
        baseline = statistics.median(
            import_times(run_child([py, "-X", "importtime", "-c", "pass"],
                                   env, state)[2])[0] for _ in range(5))
        phase.layers["interp_ms"] = interp * 1e3
        for name, runs in imports.items():
            own = [total - baseline for _, total, _ in runs]
            phase.layers[f"{name}.import_ms"] = statistics.median(own)
            phase.layers[f"{name}.import_scipy_ms"] = statistics.median(
                scipy for _, _, scipy in runs)
            phase.layers[f"{name}.exec_ms"] = statistics.median(
                wall * 1e3 - interp * 1e3 - imported
                for (wall, _, _), imported in zip(runs, own))
    return phase


# ---------------------------------------------------------------------------
# one workload, end to end
# ---------------------------------------------------------------------------

def _serve_argv(name: str, spans: Path | None) -> list[str]:
    if spans is None:
        head = [sys.executable, "-m", "repro.cli"]
    else:
        head = [sys.executable, str(HERE / "traced_serve.py"), "--spans",
                str(spans)]
    tail = ["--jobs", "2"] if name == "dispatch" else []
    return head + ["serve", "--port", "0", *tail]


def _end_to_end(name: str, setup: list[float], phase: Phase,
                problems: list[str]) -> dict[str, dict]:
    metrics: dict[str, dict] = {}

    def put(metric: str, value: float, unit: str, n: int) -> None:
        metrics[metric] = {"value": value, "unit": unit, "n": n}

    def put_percentile(metric: str, values: list[float], q: float) -> None:
        try:
            put(metric, percentile(values, q) * 1e3, "ms", len(values))
        except InsufficientSamples as exc:
            problems.append(f"{metric}: {exc}")

    latencies = list(phase.latency.values())
    put("setup_s", statistics.median(setup), "s", len(setup))
    put_percentile("p50_ms", latencies, 0.5)
    if name in TAIL_WORKLOADS:
        put_percentile("p99_ms", latencies, 0.99)
    if name == "dispatch":
        for kind in ("cold", "hit"):
            put_percentile(f"{kind}.p50_ms", [
                phase.latency[req] for req in phase.classes[kind]], 0.5)
    put("throughput", phase.work / phase.wall, "1/s", phase.work)
    put("rss_mb", phase.rss_mb, "MB", 1)
    put("error_pct", 100.0 * (phase.failed + phase.mismatches)
        / max(phase.sent, 1), "%", phase.sent)
    if name in OPEN_LOOP:
        put_percentile("gen.late_p99_ms", phase.late, 0.99)
        late = metrics.get("gen.late_p99_ms", {}).get("value", 0.0)
        if late > MAX_LATE_P99_MS:
            problems.append(f"generator ran {late:.2f} ms late at p99")
    return metrics


def _per_layer(name: str, phase: Phase, trace: dict) -> dict[str, float]:
    """Every per-layer metric; layers this workload never enters read 0."""
    values = {metric: 0.0 for metric, _, _ in ledger.per_layer_names()}
    if name != "cli":
        subsets = None
        if name == "dispatch":
            cold, hit = phase.classes["cold"], phase.classes["hit"]
            subsets = {"batch.run": cold, "resultcache.put": cold,
                       "resultcache.get": hit, "encode.result": hit}
        values.update(ledger.layer_metrics(trace["spans"], phase.latency,
                                           subsets))
        values.update(ledger.counter_metrics(trace["counts"],
                                             set(phase.latency)))
    values.update(phase.layers)
    return values


def run_workload(name: str, *, seed: int, seconds: float, traced: bool,
                 workdir: Path) -> dict:
    """Run one workload and return its metrics and counts."""
    state = workdir / f"{name}-{'traced' if traced else 'plain'}-{seed}"
    state.mkdir(parents=True)
    setup, server, spans = [], None, None
    try:
        for k in range(BOOTS):
            if server is not None:
                server.stop()
            boot = state / f"boot{k}"
            spans = boot / "spans.json" if traced else None
            server = Server(_serve_argv(name, spans), boot)
            setup.append(server.boot())
        if name == "cli":
            server.stop()
            phase = _cli_phase(seed, seconds, traced, state)
        else:
            phase = asyncio.run(_warm_then_time(name, server, seed, seconds))
            phase.rss_mb = vm_hwm_mb(server.proc.pid)
    finally:
        if server is not None:
            server.stop(TRACED_STOP_GRACE if traced else STOP_GRACE)
    phase.mismatches += _check(name, phase)

    problems: list[str] = []
    result = {
        "sent": phase.sent, "ok": len(phase.latency), "failed": phase.failed,
        "mismatches": phase.mismatches,
        "end_to_end": _end_to_end(name, setup, phase, problems),
        "problems": problems,
    }
    if traced:
        if not spans.exists():
            raise BenchmarkError(f"the traced server wrote no spans: "
                                 f"{server.log_tail()}")
        result["per_layer"] = _per_layer(name, phase,
                                         json.loads(spans.read_text()))
    return result

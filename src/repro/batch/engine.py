"""Process-pool batch execution of registered experiments.

The engine behind ``repro-hetero run all --jobs N``: it fans registered
experiments — and, for experiments with a
:class:`~repro.experiments.base.ShardSpec`, their independent trial
shards — out across a pool of worker processes, then reassembles
everything in the parent.

Design invariants, in order of importance:

* **determinism** — ``--jobs N`` must be row-for-row identical to
  ``--jobs 1``.  Shard plans are pure functions of the experiment
  kwargs (never of the worker count), every shard carries its own
  ``SeedSequence``-spawned seed, and merges always happen in shard
  order, so how the shards land on workers cannot change the result.
* **truthful observability** — each worker task runs inside its own
  :class:`~repro.obs.tracing.Observation`; its metrics registry dump
  and trace records travel back with the payload and are folded into
  the session registry/tracer, so PR 1's instrumentation reports the
  same series under parallelism as it does sequentially.
* **isolation of failures** — one failing experiment (or shard) marks
  that experiment failed and the batch carries on, exactly like the
  sequential CLI loop.
* **survival** — a worker that crashes (``BrokenProcessPool``), hangs
  past ``task_timeout``, or fails transiently does not doom the batch:
  failed attempts are retried with exponential backoff up to the
  ``retries`` budget, the pool is respawned (in-flight tasks requeued)
  up to ``max_pool_respawns`` times, and past that the engine degrades
  gracefully to sequential in-process execution with a warning.  Every
  recovery action is surfaced as a ``batch_*`` counter.

Dispatch is straggler-aware in the LPT sense: tasks are submitted
longest-estimated-first so a slow shard starts early instead of
dangling off the end of the schedule.  The estimates are heuristic and
affect only scheduling quality, never results.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

from repro.errors import InvalidParameterError
from repro.experiments.base import (ExperimentResult, _peak_rss_bytes,
                                    get_shard_spec, record_experiment_metrics,
                                    run_experiment)
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.tracing import (Observation, TraceContext, Tracer,
                               current_observation, observe)

from repro.batch.cache import ResultCache

__all__ = ["BatchItem", "BatchReport", "run_batch"]

#: Rough relative costs of the unshardable experiments (arbitrary units
#: comparable to a shard's ``chunk_trials * n``), measured once on the
#: reference box.  Used only to order submissions (LPT); an absent or
#: stale entry costs scheduling quality, nothing else.
_COST_HINTS = {
    "moment-ablation": 30_000,
    "failure-rate-sweep": 27_000,
    "protocol-optimality": 15_000,
    "heterogeneity-gain": 3_500,
    "fig4": 1_000,
    "fig3": 700,
}


@dataclass(frozen=True)
class _Task:
    """One unit of worker-pool work: a whole experiment or one shard."""

    experiment_id: str
    kwargs: dict[str, Any]
    shard_index: int | None = None  # None -> run the whole experiment
    capture_trace: bool = False
    #: Parent trace context (trace id, enclosing span id, clock epoch).
    #: When set, the worker's tracer is born linked to the session's
    #: span tree instead of minting a disconnected trace of its own.
    trace_context: TraceContext | None = None

    @property
    def cost(self) -> float:
        """Heuristic runtime estimate for LPT submission order."""
        if self.shard_index is not None:
            trials = self.kwargs.get("chunk_trials")
            if trials is not None:
                return float(trials) * float(self.kwargs.get("n", 1))
            return 50.0
        return float(_COST_HINTS.get(self.experiment_id, 100.0))


@dataclass
class _TaskOutput:
    experiment_id: str
    shard_index: int | None
    value: Any = None
    error: str | None = None
    wall_seconds: float = 0.0
    rss_delta_bytes: int | None = None
    worker_pid: int = 0
    metrics_dump: dict | None = None
    trace_records: tuple = ()


def _execute_task(task: _Task) -> _TaskOutput:
    """Worker-side entry point: run one task inside its own observation.

    Must stay importable at module level (the pool pickles a reference,
    not the function) and must never raise — errors come back as data
    so one bad experiment cannot take the pool down.
    """
    registry = MetricsRegistry()
    if task.trace_context is not None:
        tracer = Tracer.from_context(task.trace_context, keep_records=True)
    elif task.capture_trace:
        tracer = Tracer(keep_records=True)
    else:
        tracer = None
    rss_before = _peak_rss_bytes()
    start = time.perf_counter()
    out = _TaskOutput(experiment_id=task.experiment_id,
                      shard_index=task.shard_index, worker_pid=os.getpid())
    with observe(Observation(tracer=tracer, registry=registry)):
        try:
            if task.shard_index is None:
                out.value = run_experiment(task.experiment_id, **task.kwargs)
            else:
                spec = get_shard_spec(task.experiment_id)
                if spec is None:  # pragma: no cover - defensive
                    raise InvalidParameterError(
                        f"experiment {task.experiment_id!r} has no shard spec")
                name = f"shard:{task.experiment_id}[{task.shard_index}]"
                if tracer is not None:
                    with tracer.span(name):
                        out.value = spec.runner(**task.kwargs)
                else:
                    out.value = spec.runner(**task.kwargs)
                registry.counter(
                    "experiment_shards_total", "experiment shards completed"
                ).inc(experiment=task.experiment_id)
        except Exception as exc:
            out.error = f"{type(exc).__name__}: {exc}"
            out.value = None
            traceback.clear_frames(exc.__traceback__)
    out.wall_seconds = time.perf_counter() - start
    rss_after = _peak_rss_bytes()
    if rss_before is not None and rss_after is not None:
        out.rss_delta_bytes = max(0, rss_after - rss_before)
    out.metrics_dump = registry.dump()
    if tracer is not None:
        out.trace_records = tracer.records
    return out


@dataclass
class BatchItem:
    """Outcome of one experiment within a batch.

    ``outcome``: ``hit``/``follower`` (read from the cache), ``leader``
    (computed and stored) or ``local`` (computed unstored: no cache, or
    it failed)."""

    experiment_id: str
    result: ExperimentResult | None = None
    error: str | None = None
    outcome: str = "local"
    shards: int = 0
    wall_seconds: float = 0.0

    @property
    def cached(self) -> bool:
        return self.outcome in ("hit", "follower")


@dataclass
class BatchReport:
    """Everything ``run_batch`` did, in input order."""

    items: list[BatchItem] = field(default_factory=list)
    jobs: int = 1
    wall_seconds: float = 0.0

    @property
    def results(self) -> list[ExperimentResult]:
        return [item.result for item in self.items if item.result is not None]

    @property
    def failures(self) -> list[BatchItem]:
        return [item for item in self.items if item.error is not None]

    @property
    def cache_hits(self) -> int:
        return sum(item.cached for item in self.items)

    @property
    def cache_misses(self) -> int:
        return len(self.items) - self.cache_hits


def _pool_context() -> multiprocessing.context.BaseContext | None:
    """Prefer fork: workers inherit the loaded interpreter (no re-import
    tax) and any in-process experiment registrations, e.g. from tests."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None  # pragma: no cover - non-POSIX platforms


def run_batch(experiment_ids: Sequence[str], *,
              kwargs_by_id: Mapping[str, dict[str, Any]] | None = None,
              jobs: int = 1,
              cache: ResultCache | None = None,
              task_timeout: float | None = None,
              retries: int = 1,
              retry_backoff: float = 0.05,
              max_pool_respawns: int = 2,
              trace_parent: str | None = None) -> BatchReport:
    """Run experiments (optionally sharded) across a worker pool.

    Parameters
    ----------
    experiment_ids:
        Registered ids, executed/reported in this order.
    kwargs_by_id:
        Keyword overrides per experiment (the CLI's sampling flags).
    jobs:
        Worker processes.  ``1`` runs everything in-process — same
        decomposition, same seeds, same merge — which is both the
        compatibility path and the honest baseline for speedup claims.
        The hardening knobs below apply to the pool path only.
    cache:
        Optional :class:`ResultCache`: every entry goes through its
        single-flight loop, so hits are read, the entries this batch
        claims run in one go and are stored, and entries other processes
        hold are awaited — concurrent batches split the work.
    task_timeout:
        Wall-clock seconds a single task may run before it is declared
        hung.  A hung worker cannot be cancelled, so the whole pool is
        abandoned (and its processes terminated), innocent in-flight
        tasks are requeued without penalty, and the overdue task is
        retried or failed.  ``None`` disables the watchdog.
    retries:
        How many times a task may be *re*-executed after a failed
        attempt (an error outcome, a timeout, or a pool crash while it
        was in flight).  ``0`` fails fast on the first error.
    retry_backoff:
        Base of the exponential backoff slept before re-queueing attempt
        ``k`` (``retry_backoff * 2**(k-1)`` seconds).
    max_pool_respawns:
        Pool rebuild budget.  Once exhausted, remaining tasks degrade to
        sequential in-process execution (a warning is emitted and
        ``batch_sequential_fallback_total`` is incremented).
    trace_parent:
        Span id to parent this batch under (e.g. a service request's
        span), so a request that fans out through the pool still reads
        as one tree.  ``None`` roots the batch at the tracer's default.

    Observability: metrics and (when a tracer is ambient) trace records
    from every worker are merged into the session's ambient observation
    or the process-global default registry.  With an ambient tracer the
    whole invocation is wrapped in a ``batch:run`` span and every
    worker task carries a :class:`~repro.obs.tracing.TraceContext`, so
    worker-side spans come back already linked (single trace id, parent
    chain through ``batch:run``) rather than as disconnected fragments.
    """
    if jobs < 1:
        raise InvalidParameterError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise InvalidParameterError(f"retries must be >= 0, got {retries}")
    if max_pool_respawns < 0:
        raise InvalidParameterError(
            f"max_pool_respawns must be >= 0, got {max_pool_respawns}")
    if task_timeout is not None and not task_timeout > 0:
        raise InvalidParameterError(
            f"task_timeout must be positive, got {task_timeout!r}")
    if retry_backoff < 0:
        raise InvalidParameterError(
            f"retry_backoff must be >= 0, got {retry_backoff!r}")
    kwargs_by_id = {experiment_id: (kwargs_by_id or {}).get(experiment_id, {})
                    for experiment_id in experiment_ids}
    ctx = current_observation()
    registry = (ctx.registry if ctx is not None and ctx.registry is not None
                else default_registry())
    tracer = ctx.tracer if ctx is not None else None

    report = BatchReport(jobs=jobs)
    ran: dict[str, BatchItem] = {}

    def execute(pending: list[str]) -> dict[str, ExperimentResult]:
        """Run the experiments this batch computes; results by id."""
        for experiment_id in pending:
            ran[experiment_id] = BatchItem(experiment_id)
        if jobs == 1:
            for experiment_id in pending:
                item = ran[experiment_id]
                start = time.perf_counter()
                try:
                    item.result = run_experiment(experiment_id,
                                                 **kwargs_by_id[experiment_id])
                except Exception as exc:
                    item.error = f"{type(exc).__name__}: {exc}"
                item.wall_seconds = time.perf_counter() - start
        elif pending:
            _run_pool(pending, kwargs_by_id, jobs, ran, registry, tracer,
                      task_timeout=task_timeout, retries=retries,
                      retry_backoff=retry_backoff,
                      max_pool_respawns=max_pool_respawns)
        return {experiment_id: ran[experiment_id].result
                for experiment_id in pending
                if ran[experiment_id].result is not None}

    batch_start = time.perf_counter()
    with ExitStack() as stack:
        if tracer is not None:
            if trace_parent is not None:
                stack.enter_context(tracer.attach(trace_parent))
            stack.enter_context(tracer.span(
                "batch:run", jobs=jobs, experiments=len(experiment_ids)))
        if cache is None:
            results = execute(list(kwargs_by_id))
            got = {experiment_id: (results.get(experiment_id), "local")
                   for experiment_id in kwargs_by_id}
        else:
            got = cache.get_or_compute_many(kwargs_by_id, execute)
    for experiment_id in experiment_ids:
        result, outcome = got[experiment_id]
        item = replace(ran.get(experiment_id, BatchItem(experiment_id)),
                       result=result, outcome=outcome)
        report.items.append(item)
        if cache is not None:
            registry.counter(
                "batch_cache_hits_total" if item.cached
                else "batch_cache_misses_total",
                "batch results served from the on-disk cache" if item.cached
                else "batch results not found in the on-disk cache"
            ).inc(experiment=experiment_id)
    report.wall_seconds = time.perf_counter() - batch_start
    registry.counter("batch_runs_total", "batch invocations").inc()
    registry.timer("batch_seconds", "wall-clock duration of batch runs"
                   ).observe(report.wall_seconds)
    return report


#: How long one ``wait()`` poll blocks before the watchdog re-checks
#: in-flight deadlines.  Scheduling granularity, not a correctness knob.
_POLL_SECONDS = 0.05


def _abandon_pool(pool: ProcessPoolExecutor) -> None:
    """Walk away from a broken or hung pool without blocking on it."""
    pool.shutdown(wait=False, cancel_futures=True)
    # A genuinely hung worker survives a non-blocking shutdown; reap it
    # so retried tasks do not compete with zombies for cores.  The
    # process table is a private attribute, hence the defensive reach.
    processes = getattr(pool, "_processes", None)
    if processes:
        for proc in list(processes.values()):
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - already dead
                pass


def _execute_hardened(tasks: Sequence[_Task], jobs: int,
                      registry: MetricsRegistry, tracer: Tracer | None, *,
                      task_timeout: float | None, retries: int,
                      retry_backoff: float, max_pool_respawns: int
                      ) -> dict[tuple[str, int | None], _TaskOutput]:
    """Run tasks on a process pool that survives crashes and hangs.

    At most ``jobs`` tasks are in flight at a time (so a submission
    timestamp is an execution timestamp and the ``task_timeout``
    watchdog measures actual runtime, not queue time).  Failed attempts
    are retried with exponential backoff up to ``retries``; a crash or
    hang abandons the pool, requeues the in-flight tasks and respawns,
    up to ``max_pool_respawns`` times; past that budget the remaining
    tasks run sequentially in-process.
    """
    outputs: dict[tuple[str, int | None], _TaskOutput] = {}
    queue: deque[tuple[_Task, int]] = deque(
        (task, 0) for task in sorted(tasks, key=lambda t: t.cost, reverse=True))
    inflight: dict[Any, tuple[_Task, int, float]] = {}
    respawns = 0
    pool: ProcessPoolExecutor | None = ProcessPoolExecutor(
        max_workers=jobs, mp_context=_pool_context())

    def record(task: _Task, output: _TaskOutput) -> None:
        outputs[(task.experiment_id, task.shard_index)] = output
        if output.metrics_dump:
            registry.merge(output.metrics_dump)
        if tracer is not None and output.trace_records:
            tracer.ingest(output.trace_records, worker_pid=output.worker_pid)

    def retry_or_fail(task: _Task, attempt: int, error: str) -> None:
        if attempt < retries:
            registry.counter(
                "batch_task_retries_total",
                "batch task attempts retried after a failure"
            ).inc(experiment=task.experiment_id)
            if retry_backoff > 0:
                time.sleep(retry_backoff * (2.0 ** attempt))
            queue.append((task, attempt + 1))
        else:
            record(task, _TaskOutput(experiment_id=task.experiment_id,
                                     shard_index=task.shard_index,
                                     error=error))

    def respawn_or_fallback() -> None:
        nonlocal pool, respawns
        _abandon_pool(pool)
        respawns += 1
        if respawns > max_pool_respawns:
            pool = None
            registry.counter(
                "batch_sequential_fallback_total",
                "batches degraded to sequential in-process execution"
            ).inc()
            warnings.warn(
                f"batch pool irrecoverable after {respawns - 1} respawns; "
                f"degrading to sequential in-process execution",
                RuntimeWarning, stacklevel=2)
        else:
            registry.counter(
                "batch_pool_respawns_total",
                "process pools respawned after a crash or hang"
            ).inc()
            pool = ProcessPoolExecutor(max_workers=jobs,
                                       mp_context=_pool_context())

    while queue or inflight:
        if pool is None:
            # Graceful degradation: no pool left, run what remains in
            # this process.  Timeouts are unenforceable here; errors
            # still come back as data via _execute_task.
            while queue:
                task, attempt = queue.popleft()
                record(task, _execute_task(task))
            break
        while queue and len(inflight) < jobs:
            task, attempt = queue.popleft()
            inflight[pool.submit(_execute_task, task)] = (
                task, attempt, time.monotonic())
        done, _ = wait(list(inflight), timeout=_POLL_SECONDS,
                       return_when=FIRST_COMPLETED)
        if not done:
            if task_timeout is None:
                continue
            now = time.monotonic()
            overdue = {f for f, (_, _, started) in inflight.items()
                       if now - started > task_timeout}
            if not overdue:
                continue
            # A hung worker cannot be cancelled: abandon the whole pool.
            # Overdue tasks burn an attempt; innocent in-flight tasks
            # are requeued (front, to keep LPT order) without penalty.
            for future in list(inflight):
                task, attempt, _ = inflight.pop(future)
                if future in overdue:
                    registry.counter(
                        "batch_task_timeouts_total",
                        "batch tasks declared hung past --task-timeout"
                    ).inc(experiment=task.experiment_id)
                    retry_or_fail(
                        task, attempt,
                        f"TimeoutError: task exceeded task_timeout="
                        f"{task_timeout}s")
                else:
                    queue.appendleft((task, attempt))
            respawn_or_fallback()
            continue
        broken = False
        for future in done:
            task, attempt, _ = inflight.pop(future)
            try:
                output = future.result()
            except Exception as exc:  # BrokenProcessPool and friends
                broken = True
                retry_or_fail(task, attempt, f"{type(exc).__name__}: {exc}")
                continue
            if output.error is not None and attempt < retries:
                retry_or_fail(task, attempt, output.error)
            else:
                record(task, output)
        if broken:
            # Whoever crashed the pool was in `done` and has been
            # penalised; the rest were collateral damage — requeue them
            # with their attempt count intact.
            for future in list(inflight):
                task, attempt, _ = inflight.pop(future)
                queue.appendleft((task, attempt))
            respawn_or_fallback()
    if pool is not None:
        pool.shutdown()
    return outputs


def _run_pool(pending: Sequence[str], kwargs_by_id: Mapping[str, dict],
              jobs: int, items: Mapping[str, BatchItem],
              registry: MetricsRegistry, tracer: Tracer | None, *,
              task_timeout: float | None = None, retries: int = 1,
              retry_backoff: float = 0.05,
              max_pool_respawns: int = 2) -> None:
    """Execute the experiments this batch computes on a (hardened) pool."""
    capture = tracer is not None
    # Captured inside the ambient ``batch:run`` span, so worker roots
    # parent onto it and worker clocks share the session epoch.
    trace_ctx = tracer.context() if capture else None
    tasks: list[_Task] = []
    shard_specs: dict[str, Any] = {}
    shard_counts: dict[str, int] = {}
    for experiment_id in pending:
        kwargs = kwargs_by_id.get(experiment_id, {})
        spec = get_shard_spec(experiment_id)
        if spec is not None:
            try:
                shards = spec.split(**kwargs)
            except Exception as exc:
                items[experiment_id].error = f"{type(exc).__name__}: {exc}"
                continue
            shard_specs[experiment_id] = spec
            shard_counts[experiment_id] = len(shards)
            items[experiment_id].shards = len(shards)
            tasks.extend(
                _Task(experiment_id, shard_kwargs, shard_index=index,
                      capture_trace=capture, trace_context=trace_ctx)
                for index, shard_kwargs in enumerate(shards))
        else:
            tasks.append(_Task(experiment_id, kwargs, capture_trace=capture,
                               trace_context=trace_ctx))

    outputs = _execute_hardened(tasks, jobs, registry, tracer,
                                task_timeout=task_timeout, retries=retries,
                                retry_backoff=retry_backoff,
                                max_pool_respawns=max_pool_respawns)

    for experiment_id in pending:
        item = items[experiment_id]
        if item.error is not None:  # split() already failed
            continue
        if experiment_id not in shard_specs:
            output = outputs[(experiment_id, None)]
            item.wall_seconds = output.wall_seconds
            if output.error is not None:
                item.error = output.error
            else:
                item.result = output.value
            continue
        shard_outputs = [outputs[(experiment_id, index)]
                         for index in range(shard_counts[experiment_id])]
        item.wall_seconds = sum(o.wall_seconds for o in shard_outputs)
        errors = [o.error for o in shard_outputs if o.error is not None]
        if errors:
            item.error = errors[0]
            registry.counter("experiment_failures_total",
                             "experiment runs that raised"
                             ).inc(experiment=experiment_id)
            continue
        spec = shard_specs[experiment_id]
        kwargs = kwargs_by_id.get(experiment_id, {})
        try:
            merged = spec.merge([o.value for o in shard_outputs], **kwargs)
        except Exception as exc:
            item.error = f"{type(exc).__name__}: {exc}"
            registry.counter("experiment_failures_total",
                             "experiment runs that raised"
                             ).inc(experiment=experiment_id)
            continue
        record_experiment_metrics(registry, experiment_id, item.wall_seconds)
        rss_deltas = [o.rss_delta_bytes for o in shard_outputs
                      if o.rss_delta_bytes is not None]
        obs_block = {
            # Aggregate worker-side compute seconds (the shards ran
            # concurrently, so this is CPU time, not elapsed time).
            "wall_seconds": item.wall_seconds,
            # Largest high-water-mark rise any worker attributed to a
            # shard of this experiment — per-worker RSS, not inherited
            # from whatever ran before in the parent.
            "peak_rss_bytes": max(rss_deltas) if rss_deltas else None,
            "shards": len(shard_outputs),
        }
        item.result = replace(
            merged, metadata={**merged.metadata, "obs": obs_block})

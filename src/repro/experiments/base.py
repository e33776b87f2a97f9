"""Experiment framework: result objects, a registry, and a shard contract.

Every table and figure of the paper is reproduced by a registered
experiment — a named callable returning an :class:`ExperimentResult` with
structured rows plus a human-readable rendering.  The benchmarks and the
CLI both go through this registry, so "what regenerates Table 4?" has
exactly one answer.

Experiments whose cost lives in embarrassingly parallel loops (the
Monte-Carlo trial studies, parameter sweeps) can additionally register a
:class:`ShardSpec` — a declarative *split / runner / merge* contract.
The experiment function itself is then defined as
``merge(map(runner, split(kwargs)))`` via :func:`run_sharded`, so a
sequential run and the batch engine's fan-out over a process pool
(:mod:`repro.batch`) compute **identical** statistics by construction:
same shard decomposition, same per-shard seed, same merge order.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

from repro.errors import ExperimentError
from repro.experiments.tables import render_table
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.tracing import current_observation

try:  # POSIX-only; gives peak RSS for the obs block when present.
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None

__all__ = ["ExperimentResult", "ShardSpec", "experiment_index",
           "experiment_summary", "register", "get_experiment",
           "get_shard_spec", "list_experiments", "run_experiment",
           "run_sharded", "record_experiment_metrics"]


@dataclass(frozen=True)
class ExperimentResult:
    """Structured output of one experiment run.

    Attributes
    ----------
    experiment_id:
        Registry key, e.g. ``"table3"``.
    title:
        What the experiment reproduces.
    headers, rows:
        The tabular payload (rows are tuples of printable values).
    notes:
        Free-form annotations: parameter calibrations, paper-vs-measured
        remarks, caveats.
    metadata:
        Machine-readable extras (seeds, parameters, derived scalars)
        consumed by tests and benchmarks.
    """

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: Sequence[tuple]
    notes: Sequence[str] = field(default_factory=tuple)
    metadata: dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        """The experiment's report as monospace text."""
        parts = [render_table(self.headers, self.rows,
                              title=f"{self.experiment_id}: {self.title}")]
        extra = self.metadata.get("figure_text")
        if extra:
            parts.append(str(extra))
        if self.notes:
            parts.append("\n".join(f"note: {n}" for n in self.notes))
        return "\n\n".join(parts)


@dataclass(frozen=True)
class ShardSpec:
    """Declarative split/run/merge contract for parallelisable experiments.

    Attributes
    ----------
    split:
        ``(**kwargs) -> list[dict]`` — decompose one experiment
        invocation into independent shard-kwargs.  The decomposition
        must be a pure function of the experiment kwargs (never of the
        worker count), and each shard must carry its own deterministic
        seed — the convention is children of
        ``np.random.SeedSequence(seed).spawn(...)`` assigned in shard
        order.
    runner:
        ``(**shard_kwargs) -> payload`` — execute one shard.  Must be a
        module-level (picklable) callable returning a picklable payload;
        it runs inside worker processes under the batch engine.
    merge:
        ``(payloads, **kwargs) -> ExperimentResult`` — recombine the
        payloads, given in ``split`` order regardless of completion
        order, into the experiment's result.  Merging must not depend
        on how shards were distributed over workers.
    """

    split: Callable[..., list[dict]]
    runner: Callable[..., Any]
    merge: Callable[..., ExperimentResult]


#: Experiment id -> its runner.  Every id starts out as a lazy
#: ``"module:function"`` entry; :func:`get_experiment` imports the module
#: on first lookup and caches the function in place, so listing ids
#: costs no import and running one imports only its own module (the LP
#: solver, for instance, loads only with an experiment that solves LPs).
_REGISTRY: dict[str, Callable[..., ExperimentResult] | str] = {
    "coded-resilience": "repro.experiments.coded_resilience:run_coded_resilience",
    "failure-rate-sweep": "repro.experiments.failure_rate_sweep:run_failure_rate_sweep",
    "failure-resilience": "repro.experiments.failure_resilience:run_failure_resilience",
    "fig3": "repro.experiments.fig3:run_fig3",
    "fig4": "repro.experiments.fig4:run_fig4",
    "heterogeneity-gain": "repro.experiments.heterogeneity_gain:run_heterogeneity_gain",
    "majorization": "repro.experiments.majorization_study:run_majorization_study",
    "moment-ablation": "repro.experiments.moment_ablation:run_moment_ablation",
    "protocol-optimality": "repro.experiments.protocol_optimality:run_protocol_optimality",
    "saturation": "repro.experiments.saturation:run_saturation",
    "sec4-example": "repro.experiments.minorization_demo:run_minorization_demo",
    "stream-replay": "repro.experiments.stream_replay:run_stream_replay",
    "table1": "repro.experiments.params_tables:run_table1",
    "table2": "repro.experiments.params_tables:run_table2",
    "table3": "repro.experiments.table3:run_table3",
    "table4": "repro.experiments.table4:run_table4",
    "tau-sweep": "repro.experiments.sensitivity_sweep:run_tau_sweep",
    "variance-threshold": "repro.experiments.threshold:run_threshold",
    "variance-trials": "repro.experiments.variance_trials:run_variance_trials",
}
_SHARD_SPECS: dict[str, ShardSpec] = {}


def register(experiment_id: str, *, shardable: ShardSpec | None = None) -> Callable:
    """Decorator: mark a function as the runner of ``experiment_id``.

    The id must also have its lazy entry in ``_REGISTRY`` — the
    decorator never adds one, so importing a module is not what makes
    an experiment known.  It rejects an id whose entry names (or has
    resolved to) a different function.  ``shardable`` optionally
    declares the experiment's :class:`ShardSpec` so the batch engine can
    fan its independent pieces out across worker processes.
    """
    def wrap(func: Callable[..., ExperimentResult]) -> Callable[..., ExperimentResult]:
        entry = _REGISTRY.get(experiment_id, func)
        if entry is not func and entry != f"{func.__module__}:{func.__qualname__}":
            raise ExperimentError(f"duplicate experiment id {experiment_id!r}")
        if shardable is not None:
            _SHARD_SPECS[experiment_id] = shardable
        func.experiment_id = experiment_id  # type: ignore[attr-defined]
        return func
    return wrap


def get_experiment(experiment_id: str) -> Callable[..., ExperimentResult]:
    """Look up a registered experiment runner by id, importing it if lazy."""
    try:
        runner = _REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {known}") from None
    if isinstance(runner, str):
        module_name, _, attr = runner.partition(":")
        runner = getattr(importlib.import_module(module_name), attr)
        _REGISTRY[experiment_id] = runner
    return runner


def get_shard_spec(experiment_id: str) -> ShardSpec | None:
    """The experiment's :class:`ShardSpec`, or None if it is unshardable."""
    get_experiment(experiment_id)  # raise on unknown ids; import the runner
    return _SHARD_SPECS.get(experiment_id)


def run_sharded(spec: ShardSpec, **kwargs: Any) -> ExperimentResult:
    """Execute a sharded experiment sequentially: merge(map(runner, split)).

    This is the reference implementation of the shard contract — the
    experiment functions delegate to it, and the batch engine reproduces
    exactly this computation with the ``runner`` calls distributed over
    a process pool.
    """
    payloads = [spec.runner(**shard_kwargs) for shard_kwargs in spec.split(**kwargs)]
    return spec.merge(payloads, **kwargs)


def list_experiments() -> list[str]:
    """All registered experiment ids, sorted."""
    return sorted(_REGISTRY)


def experiment_summary(experiment_id: str) -> dict[str, Any]:
    """One experiment's machine-readable registry entry.

    ``description`` is the first line of the runner's docstring (empty
    when undocumented); ``shardable`` says whether the batch engine can
    fan the experiment out across worker processes.
    """
    runner = get_experiment(experiment_id)
    doc = (runner.__doc__ or "").strip()
    return {
        "id": experiment_id,
        "description": doc.splitlines()[0].strip() if doc else "",
        "shardable": experiment_id in _SHARD_SPECS,
    }


def experiment_index() -> list[dict[str, Any]]:
    """The registry as data: ``experiment_summary`` for every id, sorted.

    This is the payload behind both ``repro-hetero list --json`` and the
    service's ``GET /v1/experiments`` — one code path, one answer.
    """
    return [experiment_summary(experiment_id)
            for experiment_id in list_experiments()]


def _peak_rss_bytes() -> int | None:
    """Peak resident set size of this process, or None if unavailable.

    This is ``ru_maxrss`` — a **process-wide high-water mark** that only
    ever rises.  It says "the largest this process has ever been", not
    "what this stretch of code allocated"; per-experiment attribution
    must difference two readings (see :func:`run_experiment`).
    """
    if _resource is None:
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes; macOS reports bytes.
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def record_experiment_metrics(registry: MetricsRegistry, experiment_id: str,
                              wall_seconds: float) -> None:
    """Record one completed experiment run into a metrics registry.

    Shared by :func:`run_experiment` and the batch engine (which merges
    sharded results in the parent process) so a `run all` session shows
    the same series regardless of how the work was executed.
    """
    registry.counter("experiment_runs_total",
                     "experiment runs completed").inc(experiment=experiment_id)
    registry.timer("experiment_seconds",
                   "wall-clock duration of experiment runs"
                   ).observe(wall_seconds, experiment=experiment_id)


def run_experiment(experiment_id: str, **kwargs: Any) -> ExperimentResult:
    """Run a registered experiment with keyword overrides.

    Every run is timed: the returned result carries an ``"obs"`` block
    in its metadata (``wall_seconds``, ``peak_rss_bytes``), the global
    metrics registry records ``experiment_runs_total`` and
    ``experiment_seconds``, and — when an ambient observation is active
    — the run executes inside an ``experiment:<id>`` span so any
    simulations underneath nest into one trace tree.

    ``peak_rss_bytes`` is the amount by which *this run* raised the
    process-wide RSS high-water mark (a reading is taken before and
    after, and the delta recorded).  A run that stayed under the
    existing peak reports 0 — earlier experiments' peaks are never
    inherited.  The absolute high-water mark after the run is kept
    alongside as ``peak_rss_high_water_bytes``.
    """
    runner = get_experiment(experiment_id)
    ctx = current_observation()
    registry = (ctx.registry if ctx is not None and ctx.registry is not None
                else default_registry())
    rss_before = _peak_rss_bytes()
    start = time.perf_counter()
    try:
        if ctx is not None and ctx.tracer is not None:
            with ctx.tracer.span(f"experiment:{experiment_id}") as span_attrs:
                result = runner(**kwargs)
                span_attrs["rows"] = len(result.rows)
        else:
            result = runner(**kwargs)
    except Exception:
        registry.counter("experiment_failures_total",
                         "experiment runs that raised"
                         ).inc(experiment=experiment_id)
        raise
    wall = time.perf_counter() - start
    record_experiment_metrics(registry, experiment_id, wall)
    rss_after = _peak_rss_bytes()
    rss_delta = (max(0, rss_after - rss_before)
                 if rss_before is not None and rss_after is not None else None)
    obs_block = {"wall_seconds": wall, "peak_rss_bytes": rss_delta,
                 "peak_rss_high_water_bytes": rss_after}
    if ctx is not None and ctx.tracer is not None:
        # Lets a run-history-store row (or any JSON consumer) join this
        # result back to its span tree without guessing.
        obs_block["trace_id"] = ctx.tracer.trace_id
    return replace(result, metadata={**result.metadata, "obs": obs_block})

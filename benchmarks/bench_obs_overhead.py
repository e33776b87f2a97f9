"""Overhead guard: observability must be free when disabled.

Two measurements, recorded to ``BENCH_obs_overhead.json`` at the repo
root so future perf PRs have a baseline:

1. **engine microbenchmark** — the current event loop with no observer
   versus a replica of the pre-instrumentation (seed) loop, on an
   identical burst of no-op events.  This is the worst case: real
   simulations do work per event, which only shrinks the relative cost
   of the two extra bookkeeping ops.  The guard asserts the disabled
   path stays within noise of the seed loop.
2. **end-to-end ratio** — a full ``simulate_allocation`` round with no
   observer versus one with a full tracer+registry observer, for the
   record (tracing is allowed to cost; disabled must not).
3. **store-enabled ratio** — the same round with every run persisted to
   a ``RunStore`` versus not persisted.  The run-history store is on by
   default for ``run`` and ``serve``, so its end-to-end cost must stay
   under ``_STORE_TOLERANCE`` (one WAL INSERT per run).

Timings use best-of-N minima, the standard way to strip scheduler noise
from microbenchmarks.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.params import ModelParams
from repro.core.profile import Profile
from repro.obs.metrics import MetricsRegistry
from repro.obs.store import RunStore
from repro.obs.tracing import SimulationObserver, Tracer
from repro.protocols.fifo import fifo_allocation
from repro.simulation.engine import Simulator
from repro.simulation.runner import simulate_allocation

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs_overhead.json"

_PARAMS = ModelParams(tau=1e-6, pi=1e-7, delta=1.0)
_EVENTS = 50_000
_REPEATS = 7

#: Generous bound on disabled-path slowdown vs. the seed loop replica.
#: The added work is two C-level ops per event (len + compare); anything
#: beyond this threshold means someone put real work on the hot path.
_DISABLED_TOLERANCE = 1.30

#: End-to-end bound on persisting runs to the history store (the ISSUE
#: acceptance ceiling): one WAL INSERT per multi-millisecond round.
_STORE_TOLERANCE = 1.05


class _SeedLoopSimulator(Simulator):
    """Replica of the pre-instrumentation engine loop (the PR-0 seed)."""

    def run(self, until: float | None = None) -> None:  # noqa: D102
        from repro.errors import SimulationError
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        try:
            while not self._queue.empty:
                next_time = self._queue.next_time
                assert next_time is not None
                if until is not None and next_time > until:
                    break
                event = self._queue.pop()
                self._now = event.time
                self._events_processed += 1
                event.action()
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False


def _noop() -> None:
    pass


def _time_event_burst(sim_factory) -> float:
    """Best-of-N seconds to drain _EVENTS no-op events."""
    best = float("inf")
    for _ in range(_REPEATS):
        sim = sim_factory()
        for i in range(_EVENTS):
            sim.schedule_at(float(i), _noop)
        start = time.perf_counter()
        sim.run()
        best = min(best, time.perf_counter() - start)
    return best


def _time_round(observer_factory) -> float:
    """Best-of-N seconds for one n=512 CEP round."""
    alloc = fifo_allocation(Profile.linear(512), _PARAMS, 100.0)
    best = float("inf")
    for _ in range(_REPEATS):
        observer = observer_factory()
        start = time.perf_counter()
        simulate_allocation(alloc, observer=observer, engine="events")
        best = min(best, time.perf_counter() - start)
    return best


def _time_store_rounds(store: RunStore) -> tuple[float, float]:
    """Best-of-N seconds for one n=512 round, without/with persistence.

    The two variants are interleaved within each repeat so slow drift
    (frequency scaling, cache warmth) hits both equally — sequential
    best-of blocks can disagree by more than the store's actual cost.
    """
    alloc = fifo_allocation(Profile.linear(512), _PARAMS, 100.0)
    best_plain = best_stored = float("inf")
    for _ in range(_REPEATS * 2):
        start = time.perf_counter()
        simulate_allocation(alloc, engine="events")
        best_plain = min(best_plain, time.perf_counter() - start)

        start = time.perf_counter()
        result = simulate_allocation(alloc, engine="events")
        store.record_run(
            kind="bench", label="obs-overhead",
            wall_seconds=time.perf_counter() - start,
            metrics={"makespan": result.makespan},
            extra={"events": result.events_processed})
        best_stored = min(best_stored, time.perf_counter() - start)
    return best_plain, best_stored


def test_disabled_observability_is_within_noise_of_seed_engine(
        report_sink, tmp_path):
    seed_s = _time_event_burst(_SeedLoopSimulator)
    disabled_s = _time_event_burst(Simulator)
    disabled_ratio = disabled_s / seed_s

    round_disabled_s = _time_round(lambda: None)
    round_enabled_s = _time_round(
        lambda: SimulationObserver(Tracer(keep_records=False),
                                   MetricsRegistry()))
    enabled_ratio = round_enabled_s / round_disabled_s

    with RunStore(tmp_path / "runs.sqlite3") as store:
        no_store_s, with_store_s = _time_store_rounds(store)
    store_ratio = with_store_s / no_store_s

    baseline = {
        "events_per_burst": _EVENTS,
        "seed_loop_seconds": seed_s,
        "disabled_loop_seconds": disabled_s,
        "disabled_over_seed_ratio": round(disabled_ratio, 4),
        "round_n512_disabled_seconds": round_disabled_s,
        "round_n512_traced_seconds": round_enabled_s,
        "traced_over_disabled_ratio": round(enabled_ratio, 4),
        "round_n512_no_store_seconds": no_store_s,
        "round_n512_store_seconds": with_store_s,
        "store_over_no_store_ratio": round(store_ratio, 4),
        "disabled_tolerance": _DISABLED_TOLERANCE,
        "store_tolerance": _STORE_TOLERANCE,
    }
    BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")

    lines = ["obs overhead guard",
             f"  seed loop      {seed_s * 1e9 / _EVENTS:8.1f} ns/event",
             f"  disabled loop  {disabled_s * 1e9 / _EVENTS:8.1f} ns/event "
             f"(x{disabled_ratio:.3f} vs seed)",
             f"  n=512 round    disabled {round_disabled_s * 1e3:.2f} ms, "
             f"traced {round_enabled_s * 1e3:.2f} ms "
             f"(x{enabled_ratio:.2f})",
             f"  run store      off {no_store_s * 1e3:.2f} ms, "
             f"on {with_store_s * 1e3:.2f} ms (x{store_ratio:.3f})"]
    report_sink("obs-overhead", "\n".join(lines))

    assert disabled_ratio < _DISABLED_TOLERANCE, (
        f"disabled-observability engine loop is {disabled_ratio:.2f}x the "
        f"seed loop (tolerance {_DISABLED_TOLERANCE}x) — something heavy "
        f"landed on the no-observer hot path")
    assert store_ratio < _STORE_TOLERANCE, (
        f"persisting runs to the history store costs {store_ratio:.3f}x "
        f"end-to-end (tolerance {_STORE_TOLERANCE}x) — the per-run INSERT "
        f"has grown beyond a single WAL write")


def test_traced_run_matches_untraced_results():
    """Observability must never change simulation semantics."""
    alloc = fifo_allocation(Profile.linear(64), _PARAMS, 100.0)
    plain = simulate_allocation(alloc, engine="events")
    traced = simulate_allocation(
        alloc, observer=SimulationObserver(Tracer(), MetricsRegistry()))
    assert traced.completed_work == plain.completed_work
    assert traced.events_processed == plain.events_processed
    assert traced.makespan == plain.makespan
    assert traced.peak_queue_depth == plain.peak_queue_depth

"""Fast-path equivalence and speedup guard.

Measures the three analytic fast paths against their slow paths and
records the results to ``BENCH_perf_kernels.json`` at the repo root —
the perf trajectory baseline future PRs regress against:

1. **simulation** — the event-free analytic engine versus the
   discrete-event engine on FIFO rounds at n ∈ {8, 64, 512}.  The
   analytic path must be ≥10× faster at n = 512 (it is usually
   hundreds of times faster) *and* produce equivalent results, which
   this file re-asserts end to end before timing.
2. **batched LP** — ``lp_allocation_many`` versus per-pair
   ``lp_allocation`` over a batch of random (Σ, Φ) pairs, plus the
   wall time of the ``protocol-optimality`` experiment that now rides
   on the batch path.  Every answer is first checked against a direct
   HiGHS solve, as is a heavy-communication set that takes the
   fallback.
3. **incremental X** — an :class:`~repro.core.measure.XEvaluator`
   candidate scan versus fresh ``x_measure`` per candidate at n = 256.

Timings use best-of-N minima.  With ``REPRO_PERF_CHECK=1`` the run
first compares against the committed baseline and fails if any fast
path's speedup regressed more than 25% — the CI ``perf`` job runs in
this mode.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from repro.core.measure import XEvaluator, x_measure
from repro.core.params import ModelParams
from repro.core.profile import Profile
from repro.experiments.base import run_experiment
from repro.protocols import general
from repro.protocols.fifo import fifo_allocation
from repro.protocols.general import lp_allocation, lp_allocation_many
from repro.simulation.runner import simulate_allocation

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_perf_kernels.json"

_PARAMS = ModelParams(tau=1e-6, pi=1e-7, delta=1.0)
_SIM_SIZES = (8, 64, 512)
_REPEATS = 5
_LP_PAIRS = 24
_XEVAL_N = 256

#: Floor on the n=512 analytic-vs-events speedup (acceptance criterion).
_SIM_SPEEDUP_FLOOR = 10.0
#: Check mode fails when a fast path keeps less than this fraction of
#: its committed baseline speedup.
_REGRESSION_KEEP = 0.75
#: The speedups guarded in check mode.
_GUARDED = ("sim_speedup_n8", "sim_speedup_n64", "sim_speedup_n512",
            "lp_batch_speedup", "xeval_speedup")


def _best(fn, repeats: int = _REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _sim_speedups() -> dict[str, float]:
    out: dict[str, float] = {}
    for n in _SIM_SIZES:
        alloc = fifo_allocation(Profile.linear(n), _PARAMS, 100.0)
        # Equivalence first — a fast path that drifts is not a speedup.
        ev = simulate_allocation(alloc, engine="events")
        an = simulate_allocation(alloc, engine="analytic")
        tol = 1e-9 * max(1.0, alloc.lifespan, ev.completed_work)
        assert abs(an.completed_work - ev.completed_work) <= tol
        assert abs(an.makespan - ev.makespan) <= tol
        events_s = _best(lambda: simulate_allocation(alloc, engine="events"))
        analytic_s = _best(lambda: simulate_allocation(alloc, engine="analytic"))
        out[f"sim_events_n{n}_seconds"] = events_s
        out[f"sim_analytic_n{n}_seconds"] = analytic_s
        out[f"sim_speedup_n{n}"] = round(events_s / analytic_s, 2)
    return out


def _assert_matches_highs(profile: Profile, params: ModelParams,
                          lifespan: float, pairs, allocations) -> int:
    """Check each allocation against a direct HiGHS solve of its LP.

    A certified ``w`` is the unique optimum and must agree with
    ``linprog(method="highs")`` to 1e-9 of max w.  An LP the
    certificate rejects can have many optimal vertices, so the
    simplex's answer must match HiGHS's objective to 1e-9 relative,
    be feasible, and be certified by HiGHS's dual ``y``.  Returns how
    many pairs the certificate sent to the simplex.
    """
    fallbacks = 0
    n = profile.n
    for (sigma, phi), alloc in zip(pairs, allocations):
        A_ub = general._constraint_rows(
            profile.rho, params, general._positions(sigma, n),
            general._positions(phi, n), True)
        result = linprog(c=-np.ones(n), A_ub=A_ub,
                         b_ub=np.full(A_ub.shape[0], lifespan),
                         bounds=[(0.0, None)] * n, method="highs")
        oracle, y = result.x, -result.ineqlin.marginals
        w = alloc.w
        if general._certified_w(A_ub, lifespan) is not None:
            assert np.abs(w - oracle).max() <= 1e-9 * oracle.max()
            continue
        fallbacks += 1
        assert abs(w.sum() - oracle.sum()) <= 1e-9 * oracle.sum()
        assert (w >= 0.0).all()
        assert (A_ub @ w).max() <= lifespan * (1.0 + 1e-9)
        assert y.min() >= -1e-9 * y.max()
        assert (A_ub.T @ y).min() >= 1.0 - 1e-9
        assert abs(lifespan * y.sum() - w.sum()) <= 1e-9 * w.sum()
    return fallbacks


def _lp_speedup() -> dict[str, float]:
    profile = Profile.linear(6)
    params = ModelParams(tau=0.01, pi=0.001, delta=1.0)
    rng = np.random.default_rng(42)
    pairs = [(tuple(rng.permutation(6).tolist()),
              tuple(rng.permutation(6).tolist())) for _ in range(_LP_PAIRS)]

    def solve_loop():
        return [lp_allocation(profile, params, 50.0, s, f) for s, f in pairs]

    def solve_batch():
        return lp_allocation_many(profile, params, 50.0, pairs)

    for one, many in zip(solve_loop(), solve_batch()):
        assert np.array_equal(one.w, many.w)
    _assert_matches_highs(profile, params, 50.0, pairs, solve_batch())
    # Heavy communication: the certificate fails for some pairs, and
    # those answers come from the simplex fallback.
    heavy = ModelParams(tau=0.5, pi=0.1, delta=1.0)
    assert _assert_matches_highs(
        profile, heavy, 50.0, pairs,
        lp_allocation_many(profile, heavy, 50.0, pairs)) > 0
    loop_s = _best(solve_loop, repeats=3)
    batch_s = _best(solve_batch, repeats=3)
    return {
        "lp_pairs": _LP_PAIRS,
        "lp_loop_seconds": loop_s,
        "lp_batch_seconds": batch_s,
        "lp_batch_speedup": round(loop_s / batch_s, 3),
    }


def _xeval_speedup() -> dict[str, float]:
    rng = np.random.default_rng(7)
    rho = rng.uniform(0.5, 3.0, size=_XEVAL_N)
    params = ModelParams(tau=1e-5, pi=1e-5, delta=1.0)
    evaluator = XEvaluator(rho, params)
    candidates = [(k, float(rho[k]) * 0.5) for k in range(_XEVAL_N)]

    def scan_fresh():
        best = -np.inf
        for k, new in candidates:
            edited = rho.copy()
            edited[k] = new
            best = max(best, x_measure(edited, params))
        return best

    def scan_incremental():
        best = -np.inf
        for k, new in candidates:
            best = max(best, evaluator.x_with_rho(k, new))
        return best

    assert abs(scan_fresh() - scan_incremental()) <= 1e-9
    fresh_s = _best(scan_fresh, repeats=3)
    incremental_s = _best(scan_incremental, repeats=3)
    return {
        "xeval_n": _XEVAL_N,
        "xeval_fresh_scan_seconds": fresh_s,
        "xeval_incremental_scan_seconds": incremental_s,
        "xeval_speedup": round(fresh_s / incremental_s, 2),
    }


def test_fastpath_speedups_and_baseline(report_sink):
    committed = (json.loads(BASELINE_PATH.read_text())
                 if BASELINE_PATH.exists() else None)
    check_mode = os.environ.get("REPRO_PERF_CHECK", "") == "1"

    measured: dict[str, float] = {}
    measured.update(_sim_speedups())
    measured.update(_lp_speedup())
    measured.update(_xeval_speedup())
    opt = run_experiment("protocol-optimality")
    measured["protocol_optimality_wall_seconds"] = round(
        opt.metadata["obs"]["wall_seconds"], 4)

    lines = ["fast-path speedup guard"]
    for n in _SIM_SIZES:
        lines.append(
            f"  sim n={n:<4d} events {measured[f'sim_events_n{n}_seconds'] * 1e3:8.2f} ms, "
            f"analytic {measured[f'sim_analytic_n{n}_seconds'] * 1e3:8.3f} ms "
            f"(x{measured[f'sim_speedup_n{n}']:.0f})")
    lines.append(
        f"  LP batch   {_LP_PAIRS} pairs: loop {measured['lp_loop_seconds'] * 1e3:.1f} ms, "
        f"batch {measured['lp_batch_seconds'] * 1e3:.1f} ms "
        f"(x{measured['lp_batch_speedup']:.2f})")
    lines.append(
        f"  XEvaluator n={_XEVAL_N} scan: fresh {measured['xeval_fresh_scan_seconds'] * 1e3:.2f} ms, "
        f"incremental {measured['xeval_incremental_scan_seconds'] * 1e3:.3f} ms "
        f"(x{measured['xeval_speedup']:.0f})")
    lines.append(
        f"  protocol-optimality wall "
        f"{measured['protocol_optimality_wall_seconds']:.3f} s")
    report_sink("fastpath-equivalence", "\n".join(lines))

    if not check_mode:
        BASELINE_PATH.write_text(json.dumps(measured, indent=2) + "\n")

    assert measured["sim_speedup_n512"] >= _SIM_SPEEDUP_FLOOR, (
        f"analytic fast path is only {measured['sim_speedup_n512']:.1f}x the "
        f"event engine at n=512 (floor {_SIM_SPEEDUP_FLOOR}x)")

    if check_mode:
        assert committed is not None, (
            f"REPRO_PERF_CHECK=1 but no committed baseline at {BASELINE_PATH}")
        regressions = []
        for key in _GUARDED:
            floor = committed[key] * _REGRESSION_KEEP
            if measured[key] < floor:
                regressions.append(
                    f"{key}: {measured[key]:.2f}x vs committed "
                    f"{committed[key]:.2f}x (floor {floor:.2f}x)")
        assert not regressions, (
            "fast-path speedup regressed >25% vs BENCH_perf_kernels.json:\n  "
            + "\n  ".join(regressions))

"""Environment-sensitivity analysis: how power depends on (τ, π, δ).

The paper fixes one environment (Table 1) and studies profiles; a
practitioner also needs the transpose — fix the cluster, vary the
network.  This module provides parameter sweeps of X / work rate / HECR
and a *crossover finder*: the communication intensity at which the
ranking of two clusters flips.  (Proposition 3's cross-product test is
environment-independent **when it fires**; non-dominated pairs can and
do flip, and the finder locates where.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.batch_kernels import _build_columns, _hecr_closed_form
from repro.core.hecr import hecr_from_x
from repro.core.measure import x_measure
from repro.core.params import ModelParams
from repro.core.profile import Profile
from repro.errors import InvalidParameterError

__all__ = ["SweepResult", "sweep_tau", "sweep_pi", "sweep_delta",
           "find_tau_crossover"]


@dataclass(frozen=True)
class SweepResult:
    """One parameter sweep: grid values plus the measured responses."""

    parameter: str
    values: np.ndarray
    x: np.ndarray
    work_rate: np.ndarray
    hecr: np.ndarray

    def as_rows(self) -> list[tuple]:
        """Rows suitable for the experiment table renderer."""
        return [(float(v), float(x), float(w), float(h))
                for v, x, w, h in zip(self.values, self.x, self.work_rate, self.hecr)]


def _sweep(profile: Profile, make_params: Callable[[float], ModelParams],
           values: Sequence[float], parameter: str) -> SweepResult:
    grid = np.asarray(list(values), dtype=float)
    if grid.size == 0:
        raise InvalidParameterError("sweep grid must be non-empty")
    params = [make_params(float(value)) for value in grid]
    A, B, td = (np.array([getattr(p, name) for p in params])
                for name in ("A", "B", "tau_delta"))
    # One eq.-(1) pass over the whole grid (row k under params[k]) and
    # one closed-form HECR pass over its X column: every entry is
    # bitwise the scalar x_measure / work_rate / hecr of its grid point.
    xs = _build_columns(profile.rho, A[:, None], B[:, None], td[:, None]).x
    rates = 1.0 / (td + 1.0 / xs)
    hecrs = _hecr_closed_form(xs, profile.n, A, B, td)
    if np.isnan(hecrs).any():
        k = int(np.argmax(np.isnan(hecrs)))
        hecr_from_x(float(xs[k]), profile.n, params[k])  # raises the refusal
    return SweepResult(parameter=parameter, values=grid, x=xs,
                       work_rate=rates, hecr=hecrs)


def sweep_tau(profile: Profile, taus: Sequence[float], *,
              pi: float = 1e-5, delta: float = 1.0) -> SweepResult:
    """X / work rate / HECR across network transit rates.

    Work rate decreases monotonically in τ (communication only costs);
    tests verify this.
    """
    return _sweep(profile, lambda t: ModelParams(tau=t, pi=pi, delta=delta),
                  taus, "tau")


def sweep_pi(profile: Profile, pis: Sequence[float], *,
             tau: float = 1e-6, delta: float = 1.0) -> SweepResult:
    """X / work rate / HECR across packaging rates."""
    return _sweep(profile, lambda p: ModelParams(tau=tau, pi=p, delta=delta),
                  pis, "pi")


def sweep_delta(profile: Profile, deltas: Sequence[float], *,
                tau: float = 1e-6, pi: float = 1e-5) -> SweepResult:
    """X / work rate / HECR across output/input ratios δ ∈ [0, 1]."""
    return _sweep(profile, lambda d: ModelParams(tau=tau, pi=pi, delta=d),
                  deltas, "delta")


def _x_tau_grid(rho: np.ndarray, taus: np.ndarray, pi: float,
                delta: float) -> np.ndarray:
    """``X(P)`` across a τ-grid, one vectorized pass — eq. (1) row-wise.

    With ``A = π+τ`` and ``τδ = τ·δ`` varying along the grid but
    ``B = 1+(1+δ)π`` fixed, every row runs x_measure's own kernel, so
    each entry is bit-identical to the corresponding scalar evaluation.
    """
    B = 1.0 + (1.0 + delta) * pi
    return _build_columns(rho, pi + taus[:, None], B,
                          (taus * delta)[:, None]).x


def find_tau_crossover(p1: Profile, p2: Profile, *,
                       tau_low: float = 1e-9, tau_high: float = 10.0,
                       pi: float = 1e-5, delta: float = 1.0,
                       xtol: float = 1e-12) -> float | None:
    """The τ at which clusters P₁ and P₂ swap ranking, if any.

    Returns the crossover transit rate in ``(tau_low, tau_high)``, or
    None when the sign of ``X(P₁) − X(P₂)`` does not change across the
    bracket (the ranking is τ-stable there — e.g. whenever Proposition
    3's dominance test fires).

    Notes
    -----
    The difference can cross more than once in pathological cases; this
    returns the first crossing found by a 64-point log-grid scan,
    refined by bisection until the bracket is at most ``xtol`` wide.
    """
    if p1.n != p2.n:
        raise InvalidParameterError(
            f"crossover compares equal-size clusters (got {p1.n} vs {p2.n})")
    if not (0 < tau_low < tau_high):
        raise InvalidParameterError("need 0 < tau_low < tau_high")

    def sign(tau: float) -> float:
        params = ModelParams(tau=tau, pi=pi, delta=delta)
        return np.sign(x_measure(p1, params) - x_measure(p2, params))

    grid = np.geomspace(tau_low, tau_high, 64)
    # Vectorized grid scan: X over the whole τ-grid in one pass per
    # profile.  Bit-identical to 64 scalar sign() calls — B is
    # τ-independent and the row-wise cumprod/sum reduce in the same
    # order as the 1-D ones — so the bracket the bisection refines
    # (with the scalar sign) is exactly the one a scalar scan finds.
    signs = np.sign(_x_tau_grid(p1.rho, grid, pi, delta)
                    - _x_tau_grid(p2.rho, grid, pi, delta))
    for k in range(grid.size - 1):
        if signs[k] != 0 and signs[k + 1] != 0 and signs[k] != signs[k + 1]:
            lo, hi = float(grid[k]), float(grid[k + 1])
            while hi - lo > xtol:
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:  # the bracket is one ulp wide
                    break
                at_mid = sign(mid)
                if at_mid == 0:
                    return mid
                if at_mid == signs[k]:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
        if signs[k] == 0:
            return float(grid[k])
    return None

"""Optimal scheduling of *arbitrary* (Σ, Φ) worksharing protocols via LP.

The FIFO closed form covers Σ = Φ.  For any other startup/finishing order
pair the optimal work allocation is the solution of a small linear
program, which this module builds and solves (see *Solving*).  Having
an independent optimiser for every protocol shape lets the test suite
*verify* Theorem 1 — FIFO protocols are optimal and startup-order
invariant — instead of assuming it, and it powers the
protocol-optimality ablation benchmark.

LP formulation
--------------
Variables: work quanta ``w_c ≥ 0``.  Writing ``spos(c)``/``fpos(c)`` for
computer c's startup/finishing positions, the constraints say that each
computer finishes packaging its results no later than its result slot
opens, where result slots sit contiguously at the end of the lifespan
(the latest — hence least constraining — placement):

.. math::

    (π+τ) \\sum_{spos(d) ≤ spos(c)} w_d \\; + \\; Bρ_c w_c \\; + \\;
    τδ \\sum_{fpos(d) ≥ fpos(c)} w_d \\;\\; ≤ \\;\\; L
    \\qquad\\text{for every } c,

plus (optionally) the block-separation constraint
``(π + τ + τδ)·Σ w ≤ L`` ensuring the outgoing-send block clears the
channel before the result block begins.  The objective maximises
``Σ w_c``.

Solving
-------
Let ``S`` be the n per-computer rows.  Solve ``S w = L·1`` and
``Sᵀ y = 1``; when both are finite and strictly positive and ``w``
meets the separation row, ``w`` is the optimum:

* ``w`` is primal feasible;
* ``(y, 0)`` is dual feasible, since ``Sᵀ y = 1``;
* the objectives agree: ``1ᵀw = yᵀS w = L·1ᵀy``;
* ``y > 0`` makes every row tight at every optimum, so the optimum is
  unique.  When some ``y_c`` are at rounding level (Φ reversing Σ on a
  large heavy-traffic cluster), other vertices lie within rounding of
  the objective, and another solver may return one of them.

The paper's regime (Table 1) passes at every cluster size tried, up to
n = 128.  Heavy communication fails it on larger clusters (τ = 0.05,
π = 0.01: some random pairs at n = 8, nearly all from n = 16).  Those
LPs go to :func:`_simplex_w`, a dense tableau simplex in numpy that
checks its own answer with the LP dual.  Their optimum need not be
unique, so its ``w`` may be a different optimal vertex from another
solver's, with the same ``Σ w``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.params import ModelParams
from repro.core.profile import Profile
from repro.errors import InfeasibleScheduleError, ProtocolError
from repro.protocols.base import Protocol, WorkAllocation, validate_order

__all__ = ["GeneralProtocol", "lp_allocation", "lp_allocation_many"]


def _positions(order: tuple[int, ...], n: int) -> np.ndarray:
    """Map an order (permutation) to each computer's position in it."""
    pos = np.empty(n, dtype=int)
    pos[np.asarray(order)] = np.arange(n)
    return pos


def _constraint_rows(rho: np.ndarray, params: ModelParams,
                     spos: np.ndarray, fpos: np.ndarray,
                     enforce_separation: bool) -> np.ndarray:
    """Vectorized ``A_ub`` for one — or a batch of — (Σ, Φ) pairs.

    ``spos``/``fpos`` hold each computer's startup/finishing *position*
    and may carry leading batch dimensions; the result has shape
    ``(..., m, n)`` with ``m = n`` (+1 when the separation row is on).
    Entry (c, d) adds, in this order: ``π+τ`` when d's send precedes or
    is c's, ``Bρ_c`` on the diagonal, ``τδ`` when d's result follows or
    is c's.
    """
    A_send = params.pi + params.tau
    td = params.tau_delta
    n = rho.shape[-1]
    send_mask = spos[..., None, :] <= spos[..., :, None]
    fin_mask = fpos[..., None, :] >= fpos[..., :, None]
    rows = A_send * send_mask
    diag = np.arange(n)
    rows[..., diag, diag] += params.B * rho
    rows = rows + td * fin_mask
    if enforce_separation and td > 0.0:
        sep = np.full(rows.shape[:-2] + (1, n), A_send + td)
        rows = np.concatenate([rows, sep], axis=-2)
    return rows


def _certified_w(A_ub: np.ndarray, lifespan: float) -> np.ndarray | None:
    """The LP optimum by one linear solve, or ``None`` if uncertified.

    Solves ``S w = L·1`` and ``Sᵀ y = 1`` for the n per-computer rows
    ``S`` and accepts ``w`` only when both solutions are finite and
    strictly positive and ``w`` meets the separation row, if any —
    the duality certificate of the module docstring.
    """
    n = A_ub.shape[1]
    S = A_ub[:n]
    try:
        w = np.linalg.solve(S, np.full(n, lifespan))
        y = np.linalg.solve(S.T, np.ones(n))
    except np.linalg.LinAlgError:
        return None
    if not (np.isfinite(w).all() and np.isfinite(y).all()
            and (w > 0.0).all() and (y > 0.0).all()):
        return None
    if A_ub.shape[0] > n and A_ub[n] @ w > lifespan:
        return None
    return w


#: Relative tolerance of the simplex's duality certificate.
_CERT_RTOL = 1e-9
#: Dantzig pivots per tableau row+column before Bland's rule takes over.
_DANTZIG_BUDGET = 2
#: Total pivots per tableau row+column before the simplex gives up.
_PIVOT_CAP = 20


def _simplex_w(A_ub: np.ndarray, lifespan: float,
               protocol_name: str) -> np.ndarray:
    """The LP optimum by a dense tableau simplex, for LPs the certificate
    rejects.

    ``A ≥ 0`` and ``L > 0``, so the slack basis at ``w = 0`` is
    feasible and no phase 1 is needed.  The entering column has the most
    negative reduced cost (lowest index on ties) for the first
    ``_DANTZIG_BUDGET·(m+n)`` pivots, then Bland's rule, which cannot
    cycle.  The final tableau's slack reduced costs are the dual ``y``;
    ``w`` is returned only when ``y ≥ 0``, ``Aᵀy ≥ 1`` and
    ``L·1ᵀy = 1ᵀw`` hold to ``_CERT_RTOL`` and ``w`` meets every row.
    Those make ``w`` optimal, whichever optimal vertex it is.

    Raises
    ------
    InfeasibleScheduleError
        If the certificate fails, the pivot cap is hit or the tableau
        overflows: a refused request is better than an unverified ``w``.
    """
    m, n = A_ub.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A_ub
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = lifespan
    T[m, :n] = -1.0
    basis = np.arange(n, n + m)
    tol = 1e-12
    for pivot in range(_PIVOT_CAP * (m + n)):
        costs = T[m, :-1]
        if pivot < _DANTZIG_BUDGET * (m + n):
            j = int(np.argmin(costs))
            if costs[j] >= -tol:
                break
        else:
            candidates = np.flatnonzero(costs < -tol)
            if candidates.size == 0:
                break
            j = int(candidates[0])
        column = T[:m, j]
        rows = np.flatnonzero(column > tol)
        ratios = T[rows, -1] / column[rows]
        try:
            tied = rows[ratios <= ratios.min() * (1.0 + tol)]
            r = int(tied[np.argmin(basis[tied])])
        except ValueError:
            # A ≥ 0 with a positive diagonal bounds the LP, so every
            # entering column has a finite ratio unless the tableau
            # overflowed (a lifespan or Bρ near the largest double).
            raise InfeasibleScheduleError(
                f"LP simplex for ({protocol_name}) protocol overflowed a "
                f"double at pivot {pivot}") from None
        T[r] /= T[r, j]
        pivot_row = T[r].copy()
        T -= np.outer(T[:, j], pivot_row)
        T[r] = pivot_row
        basis[r] = j
    else:
        raise InfeasibleScheduleError(
            f"LP simplex for ({protocol_name}) protocol did not converge "
            f"in {_PIVOT_CAP * (m + n)} pivots")
    w = np.zeros(n)
    in_w = basis < n
    w[basis[in_w]] = T[:m, -1][in_w]
    y = T[m, n:n + m]
    dual_objective = lifespan * y.sum()
    residuals = {  # each must be <= _CERT_RTOL; NaN fails
        "y >= 0": -y.min() / np.abs(y).max(),
        "A'y >= 1": 1.0 - (A_ub.T @ y).min(),
        "L*sum(y) == sum(w)": abs(dual_objective - w.sum()) / dual_objective,
        "w >= 0": -w.min() / lifespan,
        "A w <= L": (A_ub @ w).max() / lifespan - 1.0,
    }
    for check, residual in residuals.items():
        if not residual <= _CERT_RTOL:
            raise InfeasibleScheduleError(
                f"LP simplex for ({protocol_name}) protocol failed its "
                f"duality certificate: {check} off by {residual:.3g}")
    return np.clip(w, 0.0, None)


def lp_allocation(profile: Profile, params: ModelParams, lifespan: float,
                  startup_order: Sequence[int],
                  finishing_order: Sequence[int],
                  *, enforce_separation: bool = True,
                  protocol_name: str = "LP") -> WorkAllocation:
    """Work-maximising allocation for a fixed (Σ, Φ) protocol pair.

    Parameters
    ----------
    profile, params, lifespan:
        The cluster, environment and CEP lifespan.
    startup_order, finishing_order:
        Σ and Φ as permutations of computer indices.
    enforce_separation:
        Require the send block to clear the channel before the first
        result transit (the layout of Figs. 1–2).  Disable only for
        experiments on saturated clusters.
    protocol_name:
        Label recorded on the returned allocation.

    Raises
    ------
    InfeasibleScheduleError
        If a rejected LP's simplex answer fails its duality certificate
        or its pivot cap (neither seen in testing), or overflows a
        double (a lifespan or ``Bρ`` near the largest one).
    """
    (allocation,) = lp_allocation_many(
        profile, params, lifespan, [(startup_order, finishing_order)],
        enforce_separation=enforce_separation, protocol_name=protocol_name)
    return allocation


def lp_allocation_many(profile: Profile, params: ModelParams, lifespan: float,
                       pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
                       *, enforce_separation: bool = True,
                       protocol_name: str = "LP",
                       orders_checked: bool = False) -> list[WorkAllocation]:
    """Solve many (Σ, Φ) protocol pairs of one cluster as a batch.

    Builds every pair's constraint matrix in one broadcast pass (a
    ``(P, m, n)`` tensor instead of P × n Python-level row loops), then
    solves each pair on its own: the certified linear solve, else
    :func:`_simplex_w`.  :func:`lp_allocation` is the one-pair call of this
    function, so each returned allocation is bit-identical to the
    corresponding :func:`lp_allocation` call.  ``orders_checked=True``
    says every order is already what
    :func:`~repro.protocols.base.validate_order` returned for this
    profile (a caller that checked them at its own boundary), so they
    are not checked again.
    """
    if lifespan <= 0 or not np.isfinite(lifespan):
        raise ProtocolError(f"lifespan must be positive and finite, got {lifespan!r}")
    if not pairs:
        return []
    n = profile.n
    validated = pairs if orders_checked else [
        (validate_order(s, n, name="startup_order"),
         validate_order(f, n, name="finishing_order")) for s, f in pairs]
    spos = np.stack([_positions(s, n) for s, _ in validated])
    fpos = np.stack([_positions(f, n) for _, f in validated])
    A_all = _constraint_rows(profile.rho, params, spos, fpos,
                             enforce_separation)
    L = float(lifespan)
    allocations: list[WorkAllocation] = []
    for (sigma, phi), A_ub in zip(validated, A_all):
        w = _certified_w(A_ub, L)
        if w is None:
            w = _simplex_w(A_ub, L, protocol_name)
        allocations.append(WorkAllocation(
            profile=profile, params=params, lifespan=lifespan, w=w,
            startup_order=sigma, finishing_order=phi,
            protocol_name=protocol_name, orders_checked=True))
    return allocations


class GeneralProtocol(Protocol):
    """An arbitrary worksharing protocol: any startup order, any finishing order.

    Parameters
    ----------
    startup_order, finishing_order:
        Fixed Σ and Φ (permutations of computer indices, sized to the
        clusters this protocol will schedule).
    enforce_separation:
        See :func:`lp_allocation`.
    """

    name = "general-LP"

    def __init__(self, startup_order: Sequence[int],
                 finishing_order: Sequence[int],
                 *, enforce_separation: bool = True) -> None:
        # Kept as given: lp_allocation checks them against the cluster.
        self._sigma = tuple(startup_order)
        self._phi = tuple(finishing_order)
        self._enforce_separation = enforce_separation

    def allocate(self, profile: Profile, params: ModelParams,
                 lifespan: float) -> WorkAllocation:
        label = "FIFO-LP" if self._sigma == self._phi else "general-LP"
        return lp_allocation(profile, params, lifespan, self._sigma, self._phi,
                             enforce_separation=self._enforce_separation,
                             protocol_name=label)

"""Optimal scheduling of *arbitrary* (Σ, Φ) worksharing protocols via LP.

The FIFO closed form covers Σ = Φ.  For any other startup/finishing order
pair the optimal work allocation is the solution of a small linear
program, which this module builds and solves with
:func:`scipy.optimize.linprog`.  Having an independent optimiser for every
protocol shape lets the test suite *verify* Theorem 1 — FIFO protocols
are optimal and startup-order invariant — instead of assuming it, and it
powers the protocol-optimality ablation benchmark.

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
    Entry (c, d) accumulates exactly the terms the scalar row loop used
    to add, in the same order: ``π+τ`` when d's send precedes or is c's,
    ``Bρ_c`` on the diagonal, ``τδ`` when d's result follows or is c's.
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
        If the LP solver fails (should not happen: w = 0 is always
        feasible).
    """
    if lifespan <= 0 or not np.isfinite(lifespan):
        raise ProtocolError(f"lifespan must be positive and finite, got {lifespan!r}")
    n = profile.n
    sigma = validate_order(startup_order, n, name="startup_order")
    phi = validate_order(finishing_order, n, name="finishing_order")
    rho = profile.rho

    A_ub = _constraint_rows(rho, params, _positions(sigma, n),
                            _positions(phi, n), enforce_separation)
    b_ub = np.full(A_ub.shape[0], float(lifespan))

    from scipy.optimize import linprog  # deferred: ~0.2 s, LP callers only

    result = linprog(c=-np.ones(n), A_ub=A_ub, b_ub=b_ub,
                     bounds=[(0.0, None)] * n, method="highs")
    if not result.success:  # pragma: no cover - w = 0 is always feasible
        raise InfeasibleScheduleError(
            f"LP solver failed for ({protocol_name}) protocol: {result.message}")
    w = np.clip(result.x, 0.0, None)
    return WorkAllocation(profile=profile, params=params, lifespan=lifespan,
                          w=w, startup_order=sigma, finishing_order=phi,
                          protocol_name=protocol_name)


def lp_allocation_many(profile: Profile, params: ModelParams, lifespan: float,
                       pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
                       *, enforce_separation: bool = True,
                       protocol_name: str = "LP") -> list[WorkAllocation]:
    """Solve many (Σ, Φ) protocol pairs of one cluster as a batch.

    Builds every pair's constraint matrix in one broadcast pass (a
    ``(P, m, n)`` tensor instead of P × n Python-level row loops) and
    shares the objective/bounds/right-hand-side structure across the P
    HiGHS solves, so enumeration studies such as
    :mod:`repro.experiments.protocol_optimality` stop paying the
    per-permutation assembly cost.  Each returned allocation is
    bit-identical to the corresponding :func:`lp_allocation` call — the
    batched builder feeds the solver the very same matrix values.
    """
    if lifespan <= 0 or not np.isfinite(lifespan):
        raise ProtocolError(f"lifespan must be positive and finite, got {lifespan!r}")
    if not pairs:
        return []
    n = profile.n
    validated = [(validate_order(s, n, name="startup_order"),
                  validate_order(f, n, name="finishing_order"))
                 for s, f in pairs]
    spos = np.stack([_positions(s, n) for s, _ in validated])
    fpos = np.stack([_positions(f, n) for _, f in validated])
    # One constraint stack for every pair, built by the same arithmetic
    # as per-pair lp_allocation, so every solve matches it.
    A_all = _constraint_rows(profile.rho, params, spos, fpos,
                             enforce_separation)
    b_ub = np.full(A_all.shape[1], float(lifespan))
    c_obj = -np.ones(n)
    bounds = [(0.0, None)] * n

    from scipy.optimize import linprog  # deferred: ~0.2 s, LP callers only

    allocations: list[WorkAllocation] = []
    for (sigma, phi), A_ub in zip(validated, A_all):
        result = linprog(c=c_obj, A_ub=A_ub, b_ub=b_ub, bounds=bounds,
                         method="highs")
        if not result.success:  # pragma: no cover - w = 0 is always feasible
            raise InfeasibleScheduleError(
                f"LP solver failed for ({protocol_name}) protocol: "
                f"{result.message}")
        w = np.clip(result.x, 0.0, None)
        allocations.append(WorkAllocation(
            profile=profile, params=params, lifespan=lifespan, w=w,
            startup_order=sigma, finishing_order=phi,
            protocol_name=protocol_name))
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
        self._sigma = tuple(int(i) for i in startup_order)
        self._phi = tuple(int(i) for i in finishing_order)
        self._enforce_separation = enforce_separation

    def allocate(self, profile: Profile, params: ModelParams,
                 lifespan: float) -> WorkAllocation:
        label = "FIFO-LP" if self._sigma == self._phi else "general-LP"
        return lp_allocation(profile, params, lifespan, self._sigma, self._phi,
                             enforce_separation=self._enforce_separation,
                             protocol_name=label)

"""FIFO worksharing protocols — the optimal CEP solutions (paper §2.3).

A FIFO protocol has coincident startup and finishing orders (Σ = Φ):
computers return results in the order they received work.  Theorem 1
(from Adler–Gong–Rosenberg [1]) states that over sufficiently long
lifespans FIFO protocols solve the CEP *optimally*, and — remarkably —
that the cluster is *equally productive under every startup order*.

Closed-form allocation
----------------------
Writing computers in startup order with rates ρ₍₁₎, …, ρ₍ₙ₎ and using the
gap-free structure of Fig. 2 (seriatim sends costing ``(π + τ)w`` each;
computer k busy ``Bρ₍ₖ₎·w`` — unpackage, compute, package; result transit
``τδ·w``), the requirements "result messages are contiguous" and "all
work ends at L" force the recurrence

.. math::

    w_{k+1}·(Bρ_{(k+1)} + A) = w_k·(Bρ_{(k)} + τδ),

whence ``w_k = w_1·Π_{j<k} (Bρ_{(j)} + τδ)/(Bρ_{(j+1)} + A)`` and, after
summing the geometric-like series,

.. math::

    W = Σ_k w_k = w_1 (Bρ_{(1)} + A)·X(P),\\qquad
    L = (Bρ_{(1)} + A)w_1 + τδ·W,

which recovers Theorem 2's ``W(L;P) = L/(τδ + 1/X(P))`` exactly.  This
module computes the ``w_k`` directly from that derivation, so the
allocation's total matches the analytic work production to rounding
error — one of the integration tests.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.measure import x_measure
from repro.core.params import ModelParams
from repro.core.profile import Profile
from repro.errors import ProtocolError
from repro.protocols.base import Protocol, WorkAllocation, validate_order

__all__ = ["FifoProtocol", "fifo_allocation", "fifo_work_fractions",
           "fifo_saturation_index"]


def fifo_saturation_index(profile: Profile, params: ModelParams) -> float:
    """The structural-feasibility index ``A·X(P)`` of the Fig.-2 layout.

    The gap-free FIFO schedule requires the outgoing send block (duration
    ``A·W``) to clear the channel before the first result slot opens (at
    ``(Bρ_{(1)} + A)·w₁ = W/X``), which is independent of the startup
    order and equivalent to ``A·X(P) ≤ 1``.

    * index ≤ 1 — the layout exists and Theorem 2's ``W(L;P)`` is
      achieved exactly (the simulator confirms this in tests);
    * index > 1 — the environment is communication-dominated and the
      asymptotic formula over-promises: in fact whenever
      ``(τ + τδ)·W > L`` the channel physically cannot carry both
      blocks.  The paper's regimes (Table 1: A ≈ 10⁻⁵) sit far below
      the boundary; this index makes the boundary checkable instead of
      implicit.
    """
    return params.A * x_measure(profile, params)


def _fifo_fractions(profile: Profile, params: ModelParams,
                    order: tuple[int, ...] | None) -> np.ndarray:
    """:func:`fifo_work_fractions` for an order :func:`validate_order`
    returned, or profile order when ``order`` is None."""
    n = profile.n
    rho = profile.rho
    if order is not None:
        index = np.asarray(order)
        rho = rho[index]
    A, B, td = params.A, params.B, params.tau_delta
    # w_{k+1}/w_k = (Bρ_k + τδ)/(Bρ_{k+1} + A):
    # numerators are shifted relative to denominators by one position.
    ratios = np.ones(n)
    if n > 1:
        ratios[1:] = (B * rho[:-1] + td) / (B * rho[1:] + A)
    w_rel = np.cumprod(ratios)           # w_k / w_1
    fractions_in_order = w_rel / w_rel.sum()
    if order is None:
        return fractions_in_order
    out = np.empty(n)
    out[index] = fractions_in_order
    return out


def fifo_work_fractions(profile: Profile, params: ModelParams,
                        startup_order: Sequence[int] | None = None) -> np.ndarray:
    """Per-computer share of the total work under FIFO, profile-indexed.

    Independent of the lifespan ``L`` (the fluid schedule is
    scale-invariant).  The shares depend on the startup order — slower
    computers started earlier absorb more work — even though their *sum*
    (i.e. the cluster's production) does not.

    Parameters
    ----------
    profile:
        The cluster's heterogeneity profile.
    params:
        Architectural model parameters.
    startup_order:
        Σ as computer indices; defaults to profile order (0, 1, …, n−1).

    Returns
    -------
    numpy.ndarray
        Shape ``(n,)``, aligned with profile indices, summing to 1.
    """
    order = (None if startup_order is None else
             validate_order(startup_order, profile.n, name="startup_order"))
    return _fifo_fractions(profile, params, order)


def fifo_allocation(profile: Profile, params: ModelParams, lifespan: float,
                    startup_order: Sequence[int] | None = None, *,
                    orders_checked: bool = False) -> WorkAllocation:
    """Exact FIFO work allocation over a lifespan ``L``.

    The total work equals Theorem 2's ``W(L;P) = L/(τδ + 1/X(P))`` and
    each quantum follows the closed-form recurrence above.

    Parameters
    ----------
    profile:
        The cluster's heterogeneity profile.
    params:
        Architectural model parameters.
    lifespan:
        The CEP lifespan ``L > 0``.
    startup_order:
        Σ (and, FIFO being FIFO, also Φ); defaults to profile order.
    orders_checked:
        True when ``startup_order`` is already what
        :func:`~repro.protocols.base.validate_order` returned for this
        profile (a caller that checked it at its own boundary), so it is
        not checked again.
    """
    if lifespan <= 0 or not np.isfinite(lifespan):
        raise ProtocolError(f"lifespan must be positive and finite, got {lifespan!r}")
    n = profile.n
    if startup_order is None:
        order = None
    elif orders_checked:
        order = startup_order
    else:
        order = validate_order(startup_order, n, name="startup_order")
    total = lifespan / (params.tau_delta + 1.0 / x_measure(profile, params))
    w = total * _fifo_fractions(profile, params, order)
    if order is None:
        order = tuple(range(n))
    return WorkAllocation(
        profile=profile,
        params=params,
        lifespan=lifespan,
        w=w,
        startup_order=order,
        finishing_order=order,
        protocol_name="FIFO",
        orders_checked=True,
    )


class FifoProtocol(Protocol):
    """The FIFO protocol family (Σ = Φ), optionally with a fixed startup order.

    Parameters
    ----------
    startup_order:
        Optional fixed Σ.  When omitted, each :meth:`allocate` call uses
        the profile's natural order — by Theorem 1(2) the choice does not
        change production, which the test suite verifies by comparing
        random orders.
    """

    name = "FIFO"

    def __init__(self, startup_order: Sequence[int] | None = None) -> None:
        self._startup_order = tuple(startup_order) if startup_order is not None else None

    def allocate(self, profile: Profile, params: ModelParams,
                 lifespan: float) -> WorkAllocation:
        return fifo_allocation(profile, params, lifespan, self._startup_order)

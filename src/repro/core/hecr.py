"""The Homogeneous-Equivalent Computing Rate (paper §2.4, Proposition 1).

``X(P)`` is tractable but "not very perspicuous": the paper therefore
calibrates a heterogeneous cluster against homogeneous ones.  The HECR
``ρ_C`` of a cluster ``C`` with profile ``P`` is the largest common rate
``ρ`` such that the homogeneous n-computer cluster ``C^(ρ)`` is at least
as powerful: ``X(P^(ρ_C)) ≥ X(P)``.  Since ``X(P^(ρ))`` is strictly
decreasing in ρ (slower computers do less work), the HECR is simply the
solution of ``X(P^(ρ)) = X(P)``; **smaller HECR ⇒ more powerful cluster**.

Proposition 1 gives the closed form

.. math::

    ρ_C = \\frac{A − τδ}{B − (1 − (A − τδ)X(P))^{1/n} B} − \\frac{A}{B}.

Numerical care: in the Table-1 regime ``(A − τδ)·X ≈ 10⁻⁵·X``, so the
inner ``1 − (1 − ε)^{1/n}`` suffers catastrophic cancellation if evaluated
naively.  We use ``-expm1(log1p(-ε)/n)`` instead, and we provide an
independent bisection inverter used to cross-validate the closed form in
the test suite.  The closed form itself lives in
:mod:`repro.core.batch_kernels` (behind ``hecr_from_x_many``); the
scalar entry points here run it on one float, so a profile's HECR is
the same float whether it is asked for alone or as a row of a batch.
"""

from __future__ import annotations

import math
from typing import Iterable, Union

from repro.core.batch_kernels import _hecr_closed_form
from repro.core.homogeneous import homogeneous_x
from repro.core.measure import x_measure
from repro.core.params import ModelParams
from repro.core.profile import Profile
from repro.errors import InvalidParameterError

__all__ = ["hecr", "hecr_from_x", "hecr_bisect"]

ProfileLike = Union[Profile, Iterable[float]]

#: Cap on bracket-widening halvings/doublings in :func:`hecr_bisect` —
#: 64 octaves span far more than float64's dynamic range ever needs, and
#: the cap keeps saturated targets (see the bracket comment below) from
#: widening forever.
_MAX_WIDENINGS = 64


def hecr_from_x(x_value: float, n: int, params: ModelParams) -> float:
    """Proposition 1's closed form: HECR of a cluster with X-measure ``x_value``.

    Parameters
    ----------
    x_value:
        The cluster's X(P); must satisfy ``0 < (A − τδ)·X < 1`` (every
        realisable profile does — X saturates at ``1/(A − τδ)``).
    n:
        Number of computers in the cluster.
    params:
        Architectural model parameters.

    Returns
    -------
    float
        The equivalent homogeneous rate ρ_C (> 0; smaller is faster).

    Raises
    ------
    InvalidParameterError
        For ``n < 1`` or a non-positive/non-finite ``x_value``, and
        wherever :func:`~repro.core.batch_kernels.hecr_from_x_many`
        reports NaN: a saturated X, or a derived rate that is
        non-positive.
    """
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    x_value = float(x_value)
    if not 0.0 < x_value < math.inf:  # NaN fails both comparisons
        raise InvalidParameterError(
            f"x_value must be positive and finite, got {x_value!r}")
    rho = float(_hecr_closed_form(x_value, n, params.A, params.B,
                                  params.tau_delta))
    if math.isnan(rho):
        gap = params.A - params.tau_delta
        if gap * x_value >= 1.0:
            raise InvalidParameterError(
                f"x_value={x_value!r} exceeds the saturation bound "
                f"1/(A−τδ)={1.0 / gap!r}; no homogeneous equivalent exists")
        raise InvalidParameterError(
            "derived HECR is non-positive: the cluster is more powerful "
            "than any homogeneous cluster of finite rate under these "
            "parameters")
    return rho


def hecr(profile: ProfileLike, params: ModelParams, *,
         x: float | None = None) -> float:
    """The HECR ``ρ_C`` of a heterogeneous cluster (Proposition 1).

    A precomputed ``x`` (the profile's X-measure, e.g. from a sweep that
    already evaluated it) skips the eq.-(1) pass; the result is
    bit-identical because the same float feeds the closed form.

    Examples
    --------
    >>> from repro.core.params import PAPER_TABLE1
    >>> from repro.core.profile import Profile
    >>> round(hecr(Profile.linear(8), PAPER_TABLE1), 3)   # Table 3, C1, n=8
    0.368
    """
    if isinstance(profile, Profile):
        n = profile.n
    else:
        profile = Profile(profile)
        n = profile.n
    if x is None:
        x = x_measure(profile, params)
    return hecr_from_x(x, n, params)


def hecr_bisect(profile: ProfileLike, params: ModelParams, *,
                rtol: float = 1e-13, max_iter: int = 200) -> float:
    """HECR by direct numeric inversion of eq. (2) — no closed form.

    Solves ``X(P^(ρ)) = X(P)`` for ρ by bisection on the strictly
    decreasing function ``ρ ↦ X(P^(ρ))``.  Slower than :func:`hecr` but
    independent of Proposition 1's algebra; the two agreeing to ~13
    significant digits is a regression test for both.

    Parameters
    ----------
    profile:
        The cluster's heterogeneity profile.
    params:
        Architectural model parameters.
    rtol:
        Relative width of the final bracket.
    max_iter:
        Bisection iteration cap.
    """
    if not isinstance(profile, Profile):
        profile = Profile(profile)
    n = profile.n
    target = x_measure(profile, params)

    # Bracket: a homogeneous cluster at the profile's fastest rate is at
    # least as powerful (minorization), one at the slowest rate at most.
    # Float rounding can leave either endpoint on the wrong side, so
    # widen until the bracket actually brackets — one halving/doubling
    # is not always enough.  If the cap is exhausted on the lo side, no
    # homogeneous rate reaches the target at all: eq. (1)'s cumprod-sum
    # has rounded X(P) past the float image of eq. (2)'s expm1 form
    # (X(P^(ρ)) plateaus below the target as ρ → 0), the same saturated
    # family for which the closed form raises — so raise, rather than
    # silently converge onto an arbitrary bound.
    lo = profile.fastest_rho  # X(P^(lo)) >= target
    hi = profile.slowest_rho  # X(P^(hi)) <= target
    for _ in range(_MAX_WIDENINGS):
        if homogeneous_x(n, lo, params) >= target:
            break
        lo *= 0.5
    else:
        raise InvalidParameterError(
            f"X(P)={target!r} exceeds every homogeneous n={n} cluster's "
            f"float-representable X-measure (saturated cluster); no "
            f"homogeneous equivalent exists")
    for _ in range(_MAX_WIDENINGS):
        if homogeneous_x(n, hi, params) <= target:
            break
        hi *= 2.0
    else:  # pragma: no cover - X(P^(ρ)) → 0 as ρ → ∞, so hi always lands
        raise InvalidParameterError(
            f"could not bracket X(P)={target!r} from above for n={n}")

    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if homogeneous_x(n, mid, params) >= target:
            lo = mid  # homogeneous cluster still at least as powerful
        else:
            hi = mid
        if hi - lo <= rtol * hi:
            break
    return 0.5 * (lo + hi)

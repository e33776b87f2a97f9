"""The LP scheduler's two solves, checked against HiGHS.

:func:`~repro.protocols.general.lp_allocation` answers from one linear
solve when its duality certificate holds and from a numpy simplex
otherwise.  The oracle here is a direct ``linprog(method="highs")``
solve of the same constraint matrix, primal and dual.

* A certified optimum is unique, so its ``w`` must agree with HiGHS's
  to 1e-9 of max w.
* An LP the certificate rejects may have many optimal vertices, and the
  simplex and HiGHS often pick different ones.  So the simplex's answer
  is checked on what is unique: its objective matches HiGHS's to 1e-9
  relative, ``w ≥ 0``, every row holds, and HiGHS's dual ``y`` certifies
  it (``y ≥ 0``, ``Aᵀy ≥ 1``, ``L·1ᵀy = 1ᵀw``).
* A certified LP is unique only in exact arithmetic when some entries
  of the certificate's dual are at rounding level (``min y`` below 1e-9
  of ``max y``, as when Φ reverses Σ on a large heavy-traffic
  cluster): other vertices then lie within rounding of the optimum, and
  HiGHS may return one of them.  Such answers get the checks of the
  previous point.

HiGHS runs at its tightest feasibility tolerances (1e-10); at its
defaults (1e-7) its objective falls up to 1.8e-9 short on the
degenerate LPs.

The regimes run from the paper's Table 1, where every LP is certified,
to communication heavy enough that the certificate fails for most
pairs.  Besides random draws, each case includes degenerate LPs: equal
speeds, and a finishing order that reverses the startup order.
"""

from collections import Counter

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.core.params import PAPER_TABLE1, ModelParams
from repro.core.profile import Profile
from repro.errors import InfeasibleScheduleError
from repro.protocols import general
from repro.protocols.general import lp_allocation

REGIMES = {
    "table1": PAPER_TABLE1,
    "heavy": ModelParams(tau=0.05, pi=0.01, delta=1.0),
    "very-heavy": ModelParams(tau=0.5, pi=0.1, delta=1.0),
}
SIZES = (1, 2, 4, 16, 32, 128)
LIFESPAN = 100.0
#: Random (profile, Σ, Φ) draws per (regime, n, separation) case.
DRAWS = 8
#: Degenerate draws per case: equal ρ; Φ = reversed Σ; both.
DEGENERATE = 3
#: Relative tolerance of every oracle comparison.
RTOL = 1e-9


def _draws(n: int, rng: np.random.Generator):
    """``DRAWS`` random (profile, Σ, Φ), then the degenerate ones."""
    for _ in range(DRAWS):
        yield (Profile(rng.uniform(0.05, 1.0, n)),
               tuple(rng.permutation(n).tolist()),
               tuple(rng.permutation(n).tolist()))
    sigma = tuple(rng.permutation(n).tolist())
    equal = Profile(np.full(n, 0.5))
    yield equal, sigma, tuple(rng.permutation(n).tolist())
    yield Profile(rng.uniform(0.05, 1.0, n)), sigma, sigma[::-1]
    yield equal, sigma, sigma[::-1]


def _highs(A_ub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """HiGHS's primal ``w`` and dual ``y ≥ 0`` of the packing LP."""
    n = A_ub.shape[1]
    result = linprog(c=-np.ones(n), A_ub=A_ub,
                     b_ub=np.full(A_ub.shape[0], LIFESPAN),
                     bounds=[(0.0, None)] * n, method="highs",
                     options={"primal_feasibility_tolerance": 1e-10,
                              "dual_feasibility_tolerance": 1e-10})
    assert result.success, result.message
    return np.clip(result.x, 0.0, None), -result.ineqlin.marginals


def _assert_optimal(w: np.ndarray, A_ub: np.ndarray, oracle: np.ndarray,
                    y: np.ndarray, case: str) -> None:
    """``w`` is an optimum of the LP, whichever vertex it is."""
    assert abs(w.sum() - oracle.sum()) <= RTOL * oracle.sum(), case
    assert (w >= 0.0).all(), case
    assert (A_ub @ w).max() <= LIFESPAN * (1.0 + RTOL), case
    assert y.min() >= -RTOL * y.max(), case
    assert (A_ub.T @ y).min() >= 1.0 - RTOL, case
    assert abs(LIFESPAN * y.sum() - w.sum()) <= RTOL * w.sum(), case


def _numerically_unique(A_ub: np.ndarray) -> bool:
    """Whether the certificate's dual keeps every entry off zero."""
    n = A_ub.shape[1]
    y = np.linalg.solve(A_ub[:n].T, np.ones(n))
    return bool(y.min() > RTOL * y.max())


def _solve_regime(params: ModelParams) -> Counter:
    """Check every draw of one regime; count the path each answer took."""
    paths: Counter = Counter()
    for n in SIZES:
        rng = np.random.default_rng(n)
        for separation in (True, False):
            for profile, sigma, phi in _draws(n, rng):
                w = lp_allocation(profile, params, LIFESPAN, sigma, phi,
                                  enforce_separation=separation).w
                A_ub = general._constraint_rows(
                    profile.rho, params, general._positions(sigma, n),
                    general._positions(phi, n), separation)
                oracle, y = _highs(A_ub)
                case = (f"n={n} separation={separation} ρ={profile.rho} "
                        f"Σ={sigma} Φ={phi}")
                if general._certified_w(A_ub, LIFESPAN) is None:
                    _assert_optimal(w, A_ub, oracle, y, case)
                    paths["simplex"] += 1
                elif not _numerically_unique(A_ub):
                    _assert_optimal(w, A_ub, oracle, y, case)
                    paths["certified, not unique"] += 1
                else:
                    tol = RTOL * oracle.max()
                    assert np.abs(w - oracle).max() <= tol, case
                    assert abs(w.sum() - oracle.sum()) <= tol, case
                    paths["certified"] += 1
    return paths


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_answers_match_highs(regime):
    paths = _solve_regime(REGIMES[regime])
    total = len(SIZES) * 2 * (DRAWS + DEGENERATE)
    assert sum(paths.values()) == total
    if regime == "table1":
        # The paper's regime never needs the fallback.
        assert paths["certified"] == total
    else:
        # Both paths run: small clusters certify, heavy traffic on
        # large ones falls back.
        assert paths["certified"] > 0 and paths["simplex"] > 0, paths


def _rejected_lp(n: int = 32) -> np.ndarray:
    """A heavy-communication LP the linear-solve certificate rejects."""
    rng = np.random.default_rng(7)
    params = REGIMES["very-heavy"]
    A_ub = general._constraint_rows(
        rng.uniform(0.05, 1.0, n), params,
        general._positions(tuple(rng.permutation(n).tolist()), n),
        general._positions(tuple(rng.permutation(n).tolist()), n), True)
    assert general._certified_w(A_ub, LIFESPAN) is None
    return A_ub


def test_blands_rule_alone_reaches_an_optimum(monkeypatch):
    # With no Dantzig budget every pivot follows Bland's rule, the
    # anti-cycling fallback; its answer must be optimal too.
    A_ub = _rejected_lp()
    monkeypatch.setattr(general, "_DANTZIG_BUDGET", 0)
    oracle, y = _highs(A_ub)
    _assert_optimal(general._simplex_w(A_ub, LIFESPAN, "LP"), A_ub,
                    oracle, y, "Bland's rule only")


def test_failed_certificate_is_refused(monkeypatch):
    A_ub = _rejected_lp()
    monkeypatch.setattr(general, "_CERT_RTOL", -1.0)
    with pytest.raises(InfeasibleScheduleError,
                       match="failed its duality certificate"):
        general._simplex_w(A_ub, LIFESPAN, "LP")


def test_pivot_cap_is_refused(monkeypatch):
    A_ub = _rejected_lp()
    monkeypatch.setattr(general, "_PIVOT_CAP", 0)
    with pytest.raises(InfeasibleScheduleError, match="did not converge"):
        general._simplex_w(A_ub, LIFESPAN, "LP")

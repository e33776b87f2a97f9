"""The LP scheduler's certified linear solve, checked against HiGHS.

:func:`~repro.protocols.general.lp_allocation` answers from one linear
solve when its duality certificate holds and from HiGHS otherwise.  The
oracle here is a direct ``linprog(method="highs")`` solve of the same
constraint matrix: a certified answer must agree with it to 1e-9 of
max w, an uncertified one must be HiGHS's answer bit for bit.  The
regimes run from the paper's Table 1, where every LP is certified, to
communication heavy enough that the certificate fails for most pairs.
"""

from collections import Counter

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.core.params import PAPER_TABLE1, ModelParams
from repro.core.profile import Profile
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


def _highs(A_ub: np.ndarray) -> np.ndarray:
    n = A_ub.shape[1]
    result = linprog(c=-np.ones(n), A_ub=A_ub,
                     b_ub=np.full(A_ub.shape[0], LIFESPAN),
                     bounds=[(0.0, None)] * n, method="highs")
    assert result.success, result.message
    return np.clip(result.x, 0.0, None)


def _solve_regime(params: ModelParams) -> Counter:
    """Check every draw of one regime; count the path each answer took."""
    paths: Counter = Counter()
    for n in SIZES:
        rng = np.random.default_rng(n)
        for separation in (True, False):
            for _ in range(DRAWS):
                profile = Profile(rng.uniform(0.05, 1.0, n))
                sigma = tuple(rng.permutation(n).tolist())
                phi = tuple(rng.permutation(n).tolist())
                w = lp_allocation(profile, params, LIFESPAN, sigma, phi,
                                  enforce_separation=separation).w
                A_ub = general._constraint_rows(
                    profile.rho, params, general._positions(sigma, n),
                    general._positions(phi, n), separation)
                oracle = _highs(A_ub)
                case = f"n={n} separation={separation} Σ={sigma} Φ={phi}"
                if general._certified_w(A_ub, LIFESPAN) is None:
                    assert np.array_equal(w, oracle), case
                    paths["highs"] += 1
                else:
                    tol = 1e-9 * oracle.max()
                    assert np.abs(w - oracle).max() <= tol, case
                    assert abs(w.sum() - oracle.sum()) <= tol, case
                    paths["certified"] += 1
    return paths


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_answers_match_highs(regime):
    paths = _solve_regime(REGIMES[regime])
    total = len(SIZES) * 2 * DRAWS
    assert sum(paths.values()) == total
    if regime == "table1":
        # The paper's regime never needs the fallback.
        assert paths["certified"] == total
    else:
        # Both paths run: small clusters certify, heavy traffic on
        # large ones falls back.
        assert paths["certified"] > 0 and paths["highs"] > 0, paths


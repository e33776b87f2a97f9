"""Unit tests for repro.core.hecr (Proposition 1)."""

import numpy as np
import pytest

from repro.core.batch_kernels import ProfileBatch, hecr_from_x_many
from repro.core.hecr import hecr, hecr_bisect, hecr_from_x
from repro.core.homogeneous import homogeneous_x
from repro.core.measure import x_measure
from repro.core.params import ModelParams
from repro.core.profile import Profile
from repro.errors import InvalidParameterError
from tests.conftest import PARAM_GRID, PROFILE_GRID


class TestClosedForm:
    def test_homogeneous_cluster_is_its_own_equivalent(self, paper_params):
        for rho in (1.0, 0.5, 0.125):
            p = Profile.homogeneous(6, rho)
            assert hecr(p, paper_params) == pytest.approx(rho, rel=1e-10)

    @pytest.mark.parametrize("params", PARAM_GRID)
    @pytest.mark.parametrize("profile", PROFILE_GRID)
    def test_defining_property(self, profile, params):
        # X(P^(HECR)) == X(P): the homogeneous cluster at the HECR matches.
        rho_c = hecr(profile, params)
        assert homogeneous_x(profile.n, rho_c, params) == pytest.approx(
            x_measure(profile, params), rel=1e-9)

    @pytest.mark.parametrize("params", PARAM_GRID)
    @pytest.mark.parametrize("profile", PROFILE_GRID)
    def test_bisect_agrees_with_closed_form(self, profile, params):
        assert hecr_bisect(profile, params) == pytest.approx(
            hecr(profile, params), rel=1e-10)

    def test_bracketed_by_extremes(self, paper_params):
        p = Profile([1.0, 0.5, 0.25])
        rho_c = hecr(p, paper_params)
        assert p.fastest_rho < rho_c < p.slowest_rho

    def test_degenerate_params(self):
        params = ModelParams(tau=0.2, pi=0.0, delta=1.0)
        assert params.is_degenerate
        p = Profile([1.0, 0.5])
        rho_c = hecr(p, params)
        assert homogeneous_x(2, rho_c, params) == pytest.approx(
            x_measure(p, params), rel=1e-12)

    def test_accepts_iterable(self, paper_params):
        assert hecr([1.0, 0.5], paper_params) == hecr(Profile([1.0, 0.5]), paper_params)


class TestTable3Values:
    """The paper's Table 3, reproduced to its printed precision ±0.006."""

    @pytest.mark.parametrize("n,expected", [(8, 0.366), (16, 0.298), (32, 0.251)])
    def test_linear_cluster(self, n, expected, paper_params):
        assert hecr(Profile.linear(n), paper_params) == pytest.approx(expected, abs=6e-3)

    @pytest.mark.parametrize("n,expected", [(8, 0.216), (16, 0.116), (32, 0.060)])
    def test_harmonic_cluster(self, n, expected, paper_params):
        assert hecr(Profile.harmonic(n), paper_params) == pytest.approx(expected, abs=7e-3)

    def test_harmonic_more_powerful_at_every_size(self, paper_params):
        for n in (8, 16, 32):
            assert hecr(Profile.harmonic(n), paper_params) < hecr(
                Profile.linear(n), paper_params)

    def test_ratio_grows_with_n(self, paper_params):
        ratios = [
            hecr(Profile.linear(n), paper_params) / hecr(Profile.harmonic(n), paper_params)
            for n in (8, 16, 32)
        ]
        assert ratios[0] < ratios[1] < ratios[2]
        assert ratios[2] > 4.0  # "more than 4 for 32 computers"


class TestHecrFromX:
    def test_monotone_decreasing_in_x(self, paper_params):
        # More powerful (larger X) ⇒ smaller equivalent rate.
        xs = [5.0, 10.0, 20.0]
        hecrs = [hecr_from_x(x, 4, paper_params) for x in xs]
        assert hecrs == sorted(hecrs, reverse=True)

    def test_rejects_nonpositive_x(self, paper_params):
        with pytest.raises(InvalidParameterError):
            hecr_from_x(0.0, 4, paper_params)

    def test_rejects_saturated_x(self, paper_params):
        bound = 1.0 / paper_params.A_minus_tau_delta
        with pytest.raises(InvalidParameterError):
            hecr_from_x(bound, 4, paper_params)

    def test_rejects_bad_n(self, paper_params):
        with pytest.raises(InvalidParameterError):
            hecr_from_x(1.0, 0, paper_params)


class TestHecrMany:
    """Proposition 1 over many X-values: ``hecr_from_x_many`` and
    ``ProfileBatch.hecr``, the one closed form the scalar path calls."""

    def test_matches_scalar(self, paper_params, rng):
        profiles = rng.uniform(0.1, 1.0, size=(12, 5))
        batch = ProfileBatch(profiles).hecr(paper_params)
        for row, h in zip(profiles, batch):
            assert h == hecr(Profile(row), paper_params)

    def test_saturated_rows_become_nan(self, paper_params):
        # Force eps to round to 1: report NaN, not garbage.
        n = 4
        profiles = np.full((1, n), 0.5)
        bound = 1.0 / paper_params.A_minus_tau_delta
        batch = ProfileBatch(profiles).hecr(
            paper_params, x=np.array([bound * (1 - 1e-16)]))
        assert np.isnan(batch[0])

    def test_shape_mismatch_rejected(self, paper_params):
        with pytest.raises(InvalidParameterError, match="shape mismatch"):
            ProfileBatch(np.ones((3, 2))).hecr(paper_params, x=np.ones(2))

    def test_near_saturated_rate_is_nan_not_negative(self, paper_params):
        # Regression: just below the eps >= 1 - 1e-14 cutoff the closed
        # form's cancellation yields a small *negative* rate (-9.95e-07
        # at this x), which the batch closed form used to return where
        # the scalar path raises.  The whole non-positive family must be
        # NaN.
        n = 4
        x = (1.0 - 5e-14) / paper_params.A_minus_tau_delta
        batch = hecr_from_x_many(np.array([x]), n, paper_params)
        assert np.isnan(batch[0])          # not -9.95e-07
        with pytest.raises(InvalidParameterError):
            hecr_from_x(x, n, paper_params)

    def test_near_bound_large_gap_rate_stays_finite(self):
        # Regression (converse direction): the NaN family must match the
        # scalar refusal set *exactly*.  A padded ``eps >= 1 - 1e-14``
        # cutoff NaN-ed this large-gap row (eps = 1 - 1.8e-15) even
        # though the scalar closed form happily returns a positive rate.
        params = ModelParams(tau=0.5, pi=0.0, delta=0.0)
        profiles = np.array([[7.81300120e-03, 2.50704307e-02, 5.71952579e-03,
                              1.68593371e-03, 1.99446808e-02, 1.29856016e-02,
                              1.77344792e-02, 1.01874701e-03]])
        batch = ProfileBatch(profiles)
        xs = batch.x(params)
        eps = (params.A - params.tau_delta) * xs[0]
        assert 1.0 - 1e-14 < eps < 1.0  # inside the old padded band
        scalar = hecr_from_x(float(xs[0]), profiles.shape[1], params)
        assert scalar > 0.0
        assert batch.hecr(params, x=xs)[0] == scalar

    def test_empty_batch_returns_empty(self, paper_params):
        out = hecr_from_x_many(np.empty(0), 5, paper_params)
        assert out.shape == (0,)
        assert ProfileBatch(np.empty((0, 5))).hecr(paper_params).shape == (0,)

    def test_zero_computer_rows_rejected(self, paper_params):
        with pytest.raises(InvalidParameterError, match="at least one computer"):
            ProfileBatch(np.empty((2, 0)))
        with pytest.raises(InvalidParameterError, match="n must be >= 1"):
            hecr_from_x_many(np.empty(2), 0, paper_params)


class TestHecrBisectBracket:
    # A wide-dynamic-range profile whose eq.-(1) X rounds past the float
    # image of eq. (2): no homogeneous rate reaches the target, however
    # far the lo bracket widens.
    _PARAMS = ModelParams(tau=1.5472e-08, pi=7.6138e-05, delta=0.504094)
    _N = 48

    def _saturated_profile(self) -> Profile:
        return Profile(10 ** np.random.default_rng(7).uniform(-6, 0, self._N))

    def test_unbracketable_target_raises_like_closed_form(self):
        # Regression: the one-shot `lo *= 0.5` widening left a
        # non-bracketing interval here and bisection silently converged
        # onto the bound fastest_rho/2.  All three paths must now agree
        # this cluster has no homogeneous equivalent: bisect raises,
        # the closed form raises, the batch path is NaN.
        profile = self._saturated_profile()
        with pytest.raises(InvalidParameterError, match="no.*homogeneous"):
            hecr_bisect(profile, self._PARAMS)
        with pytest.raises(InvalidParameterError):
            hecr(profile, self._PARAMS)
        assert np.isnan(ProfileBatch(profile.rho[None, :]).hecr(self._PARAMS)[0])

    def test_bracketing_profiles_still_match_closed_form(self):
        # Same extreme regime, one decade less spread: bracketing holds
        # and the two independent inversions must keep agreeing.
        profile = Profile(10 ** np.random.default_rng(7).uniform(-5, 0, self._N))
        assert hecr_bisect(profile, self._PARAMS) == pytest.approx(
            hecr(profile, self._PARAMS), rel=1e-11)

"""Unit tests for repro.core.measure (eq. (1), Theorem 2, eq. (3))."""

import sys

import numpy as np
import pytest

from repro.core.measure import (
    work_production,
    work_rate,
    work_ratio,
    x_decomposition,
    x_measure,
)
from repro.core.batch_kernels import ProfileBatch
from repro.core.params import NEGLIGIBLE_OVERHEADS, ModelParams
from repro.core.profile import Profile
from repro.errors import InvalidParameterError, InvalidProfileError
from tests.conftest import PARAM_GRID, PROFILE_GRID


class TestXMeasure:
    def test_single_computer_closed_form(self, paper_params):
        # n = 1: X = 1/(Bρ + A).
        x = x_measure([0.5], paper_params)
        expected = 1.0 / (paper_params.B * 0.5 + paper_params.A)
        assert x == pytest.approx(expected, rel=1e-14)

    def test_two_computer_hand_expansion(self, paper_params):
        A, B, td = paper_params.A, paper_params.B, paper_params.tau_delta
        rho = [1.0, 0.5]
        expected = 1.0 / (B * 1.0 + A) + (B * 1.0 + td) / ((B * 1.0 + A) * (B * 0.5 + A))
        assert x_measure(rho, paper_params) == pytest.approx(expected, rel=1e-14)

    def test_negligible_overheads_approach_total_speed(self):
        p = Profile([1.0, 0.5, 0.25])
        x = x_measure(p, NEGLIGIBLE_OVERHEADS)
        assert x == pytest.approx(p.total_speed, rel=1e-6)

    def test_accepts_profile_and_iterable(self, paper_params):
        p = Profile([1.0, 0.5])
        assert x_measure(p, paper_params) == x_measure([1.0, 0.5], paper_params)

    @pytest.mark.parametrize("params", PARAM_GRID)
    @pytest.mark.parametrize("profile", PROFILE_GRID)
    def test_positive_everywhere(self, profile, params):
        assert x_measure(profile, params) > 0.0

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_order_invariance(self, params, rng):
        # Theorem 1(2): X is a symmetric function of the profile.
        profile = Profile([1.0, 0.5, 1 / 3, 0.25, 0.125])
        base = x_measure(profile, params)
        for _ in range(5):
            order = rng.permutation(profile.n)
            assert x_measure(profile.permuted(order), params) == pytest.approx(
                base, rel=1e-12)

    def test_saturation_bound(self, paper_params):
        # X < 1/(A − τδ) mathematically; float rounding may graze the
        # bound at extreme saturation, so allow a few ulps.
        bound = 1.0 / paper_params.A_minus_tau_delta
        x = x_measure(Profile.homogeneous(10_000, 1e-4), paper_params)
        assert x <= bound * (1.0 + 1e-12)

    @pytest.mark.parametrize("rho, params", [
        # B·ρ = inf: a factor inf/inf makes X NaN.
        ([sys.float_info.max, 0.5], ModelParams(tau=0.1, pi=0.01)),
        # B·ρ + A = inf for every ρ: every term 1/inf makes X zero.
        ([1.0, 0.5, 0.25], ModelParams(tau=0.1, pi=1e308, delta=5e-324)),
    ], ids=["nan", "zero"])
    def test_refuses_x_that_is_not_a_positive_double(self, rho, params):
        with pytest.raises(InvalidProfileError, match="positive finite"):
            x_measure(rho, params)
        with pytest.raises(InvalidProfileError, match="positive finite"):
            ProfileBatch([[1.0] * len(rho), rho]).x(params)

    def test_adding_a_computer_increases_x(self, paper_params):
        p = Profile([1.0, 0.5])
        assert x_measure(p.extended(0.7), paper_params) > x_measure(p, paper_params)


class TestProposition2:
    """Faster clusters complete more work."""

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_speeding_any_computer_increases_x(self, params):
        p = Profile([1.0, 0.5, 1 / 3, 0.25])
        base = x_measure(p, params)
        for i in range(p.n):
            sped = p.with_rho_at(i, p[i] * 0.9)
            assert x_measure(sped, params) > base

    def test_minorization_implies_larger_x(self, paper_params):
        slower = Profile([1.0, 0.6, 0.5])
        faster = Profile([0.9, 0.6, 0.4])
        assert faster.minorizes(slower)
        assert x_measure(faster, paper_params) > x_measure(slower, paper_params)


class TestWorkProduction:
    def test_linear_in_lifespan(self, paper_params, table4_profile):
        w1 = work_production(table4_profile, paper_params, 10.0)
        w2 = work_production(table4_profile, paper_params, 20.0)
        assert w2 == pytest.approx(2.0 * w1, rel=1e-14)

    def test_matches_theorem2_formula(self, paper_params, table4_profile):
        X = x_measure(table4_profile, paper_params)
        expected = 100.0 / (paper_params.tau_delta + 1.0 / X)
        assert work_production(table4_profile, paper_params, 100.0) == pytest.approx(
            expected, rel=1e-14)

    def test_rejects_bad_lifespan(self, paper_params, table4_profile):
        with pytest.raises(InvalidParameterError):
            work_production(table4_profile, paper_params, 0.0)
        with pytest.raises(InvalidParameterError):
            work_production(table4_profile, paper_params, -1.0)

    @pytest.mark.parametrize("lifespan", [1e308, sys.float_info.max])
    def test_refuses_overflowed_work(self, paper_params, lifespan):
        # W = L × rate; rate ≈ 1.5 here, so a finite L near the largest
        # double gives W = inf, which both forms refuse.
        profile = Profile([1.0, 0.5])
        assert work_rate(profile, paper_params) > 1.0
        with pytest.raises(InvalidParameterError, match="overflows"):
            work_production(profile, paper_params, lifespan)
        with pytest.raises(InvalidParameterError, match="overflows"):
            ProfileBatch([[0.5, 0.5], [1.0, 0.5]]).work_production(
                paper_params, lifespan)

    def test_largest_finite_work_is_answered(self, paper_params):
        # A rate below 1 keeps even the largest lifespan's W finite.
        profile = Profile([1.0])
        assert work_rate(profile, paper_params) < 1.0
        lifespan = sys.float_info.max
        expected = lifespan * work_rate(profile, paper_params)
        assert work_production(profile, paper_params, lifespan) == expected
        assert ProfileBatch([[1.0]]).work_production(
            paper_params, lifespan)[0] == expected

    def test_work_rate_tracks_x(self, paper_params):
        # X(P1) >= X(P2) iff W(L;P1) >= W(L;P2).
        p1, p2 = Profile([0.99, 0.02]), Profile([0.5, 0.5])
        assert x_measure(p1, paper_params) > x_measure(p2, paper_params)
        assert work_rate(p1, paper_params) > work_rate(p2, paper_params)

    def test_work_ratio_reciprocal(self, paper_params):
        p1, p2 = Profile([1.0, 0.5]), Profile([1.0, 0.4])
        r = work_ratio(p1, p2, paper_params)
        assert work_ratio(p2, p1, paper_params) == pytest.approx(1.0 / r, rel=1e-14)


class TestXMeasureMany:
    """Eq. (1) over many profiles at once: ``ProfileBatch.x``."""

    def test_matches_scalar(self, paper_params, rng):
        profiles = rng.uniform(0.05, 1.0, size=(20, 6))
        batch = ProfileBatch(profiles).x(paper_params)
        for row, x in zip(profiles, batch):
            assert x == x_measure(row, paper_params)

    def test_rejects_1d(self, paper_params):
        with pytest.raises(InvalidParameterError):
            ProfileBatch(np.ones(4))

    def test_rejects_nonpositive(self, paper_params):
        with pytest.raises(InvalidParameterError):
            ProfileBatch(np.array([[1.0, 0.0]]))

    def test_empty_batch_returns_empty(self, paper_params):
        # Regression: (0, n) used to be rejected as "must be non-empty,
        # positive and finite", breaking empty-shard pipelines.  A batch
        # of zero profiles is valid and evaluates to zero X values.
        out = ProfileBatch(np.empty((0, 4))).x(paper_params)
        assert out.shape == (0,)
        assert out.dtype == np.float64

    def test_zero_computer_rows_rejected(self, paper_params):
        # (m, 0) stays a hard error, with a message naming the shape.
        with pytest.raises(InvalidParameterError,
                           match="at least one computer"):
            ProfileBatch(np.empty((3, 0)))


class TestXDecomposition:
    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_reassembles_x(self, params):
        p = Profile([1.0, 0.5, 1 / 3, 0.25])
        for i, j in [(0, 1), (2, 3), (0, 3), (3, 1)]:
            dec = x_decomposition(p, params, i, j)
            assert dec.x_value == pytest.approx(x_measure(p, params), rel=1e-11)

    def test_two_computers_have_zero_z(self, paper_params):
        dec = x_decomposition(Profile([1.0, 0.5]), paper_params, 0, 1)
        assert dec.Z == 0.0
        assert dec.Y == 1.0

    def test_symmetric_in_ij(self, paper_params, table4_profile):
        a = x_decomposition(table4_profile, paper_params, 1, 2)
        b = x_decomposition(table4_profile, paper_params, 2, 1)
        assert a.lead == pytest.approx(b.lead, rel=1e-14)

    def test_y_and_z_positive(self, paper_params, table4_profile):
        dec = x_decomposition(table4_profile, paper_params, 0, 3)
        assert dec.Y > 0.0
        assert dec.Z > 0.0

    def test_rejects_single_computer(self, paper_params):
        with pytest.raises(InvalidParameterError):
            x_decomposition(Profile([1.0]), paper_params, 0, 0)

    def test_rejects_equal_indices(self, paper_params, table4_profile):
        with pytest.raises(InvalidParameterError):
            x_decomposition(table4_profile, paper_params, 2, 2)

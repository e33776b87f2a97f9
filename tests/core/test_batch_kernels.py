"""The columnar ProfileBatch kernels: contracts, parity, edit previews.

Parity with the scalar layer is the module's whole contract, so these
tests compare a kernel row-for-row against its scalar counterpart with
``==`` (bitwise — HECR included: the scalar closed form is a one-element
call of the batch one).  The broader randomised sweep lives in
``tests/properties/test_batch_parity_properties.py``; this file pins
construction/validation semantics, the empty-batch contract and the
edit-preview algebra on deterministic cases.
"""

import numpy as np
import pytest

from repro.core.batch_kernels import (
    MOMENT_STATISTICS,
    ProfileBatch,
    hecr_from_x_many,
    majorization_predictions,
    minorization_predictions,
    moment_predictions,
    variance_predictions,
)
from repro.core.hecr import hecr, hecr_from_x
from repro.core.measure import XEvaluator, work_production, work_rate, x_measure
from repro.core.params import PAPER_TABLE1, ModelParams
from repro.core.profile import Profile
from repro.errors import InvalidParameterError, InvalidProfileError
from repro.predictors.dominance import DominanceVerdict, minorization_predicts
from repro.predictors.majorization import majorization_prediction
from repro.predictors.variance import MOMENT_PREDICTORS, variance_prediction

_VERDICT_CODES = {DominanceVerdict.FIRST_DOMINATES: 0,
                  DominanceVerdict.SECOND_DOMINATES: 1,
                  DominanceVerdict.INDETERMINATE: -1}


class TestConstruction:
    def test_validates_once_and_exposes_shape(self, rng):
        rows = rng.uniform(0.1, 1.0, size=(6, 4))
        batch = ProfileBatch(rows)
        assert batch.shape == (6, 4)
        assert batch.m == 6 and batch.n == 4 and len(batch) == 6
        np.testing.assert_array_equal(batch.rho, rows)

    def test_copy_isolates_caller_mutation(self, rng):
        rows = rng.uniform(0.1, 1.0, size=(3, 3))
        batch = ProfileBatch(rows)  # copy=True default
        before = batch.x(PAPER_TABLE1).copy()
        rows[0, 0] = 99.0
        np.testing.assert_array_equal(batch.x(PAPER_TABLE1), before)

    def test_rho_view_is_read_only(self, rng):
        batch = ProfileBatch(rng.uniform(0.1, 1.0, size=(2, 3)))
        with pytest.raises(ValueError):
            batch.rho[0, 0] = 1.0

    def test_rejects_1d(self):
        with pytest.raises(InvalidParameterError, match="2-D"):
            ProfileBatch(np.ones(4))

    def test_rejects_nonpositive_and_nonfinite(self):
        with pytest.raises(InvalidParameterError):
            ProfileBatch(np.array([[1.0, 0.0]]))
        with pytest.raises(InvalidParameterError):
            ProfileBatch(np.array([[1.0, np.inf]]))

    def test_zero_computer_rows_rejected_by_shape(self):
        with pytest.raises(InvalidParameterError,
                           match="at least one computer"):
            ProfileBatch(np.empty((5, 0)))

    def test_from_profiles(self):
        batch = ProfileBatch.from_profiles(
            [Profile.linear(3), Profile.homogeneous(3, 0.5)])
        assert batch.shape == (2, 3)
        with pytest.raises(InvalidParameterError):
            ProfileBatch.from_profiles([])
        with pytest.raises(InvalidProfileError):
            ProfileBatch.from_profiles([Profile.linear(3), Profile.linear(4)])


class TestEmptyBatchContract:
    """Every kernel maps an (0, n) batch to a shape-(0,) result."""

    def test_all_kernels_return_empty(self):
        batch = ProfileBatch(np.empty((0, 4)))
        params = PAPER_TABLE1
        assert batch.x(params).shape == (0,)
        assert batch.work_rates(params).shape == (0,)
        assert batch.work_production(params, 10.0).shape == (0,)
        assert batch.hecr(params).shape == (0,)
        for method in ("means", "variances", "stds", "geometric_means",
                       "harmonic_means", "min_rho", "max_rho", "totals"):
            assert getattr(batch, method)().shape == (0,)

    def test_pairwise_kernels_return_empty(self):
        a = ProfileBatch(np.empty((0, 4)))
        b = ProfileBatch(np.empty((0, 4)))
        assert moment_predictions(a, b).shape == (0,)
        assert variance_predictions(a, b).shape == (0,)
        assert minorization_predictions(a, b).shape == (0,)
        assert majorization_predictions(a, b).shape == (0,)


class TestScalarParity:
    def test_x_bitwise(self, paper_params, rng):
        rows = rng.uniform(1e-3, 1.0, size=(25, 7))
        xs = ProfileBatch(rows).x(paper_params)
        for row, x in zip(rows, xs):
            assert x == x_measure(row, paper_params)

    def test_work_kernels_bitwise(self, paper_params, rng):
        rows = rng.uniform(0.05, 1.0, size=(10, 5))
        batch = ProfileBatch(rows)
        xs = batch.x(paper_params)
        rates = batch.work_rates(paper_params)
        work = batch.work_production(paper_params, 3600.0)
        for row, x, rate, w in zip(rows, xs, rates, work):
            assert rate == work_rate(row, paper_params, x=float(x))
            assert w == work_production(row, paper_params, 3600.0, x=float(x))

    def test_statistics_bitwise(self, rng):
        rows = rng.uniform(0.05, 1.0, size=(12, 6))
        batch = ProfileBatch(rows)
        for i, row in enumerate(rows):
            p = Profile(row)
            assert batch.means()[i] == p.mean
            assert batch.variances()[i] == p.variance
            assert batch.stds()[i] == p.std
            assert batch.geometric_means()[i] == p.geometric_mean
            assert batch.harmonic_means()[i] == p.n / float(np.sum(1.0 / p.rho))
            assert batch.min_rho()[i] == p.fastest_rho
            assert batch.max_rho()[i] == p.slowest_rho
            assert batch.totals()[i] == float(np.sum(p.rho))

    def test_hecr_close_to_scalar(self, paper_params, rng):
        rows = rng.uniform(0.1, 1.0, size=(15, 6))
        batch = ProfileBatch(rows)
        xs = batch.x(paper_params)
        hs = batch.hecr(paper_params, x=xs)
        for row, x, h in zip(rows, xs, hs):
            # Bitwise, not merely close: one closed form serves both.
            assert h == hecr(Profile(row), paper_params, x=float(x))

    def test_moment_statistics_cover_all_predictors(self):
        assert set(MOMENT_STATISTICS) == set(MOMENT_PREDICTORS)


class TestHecrFromXMany:
    def test_validation(self, paper_params):
        with pytest.raises(InvalidParameterError, match="n must be >= 1"):
            hecr_from_x_many(np.array([1.0]), 0, paper_params)
        with pytest.raises(InvalidParameterError):
            hecr_from_x_many(np.array([1.0, -2.0]), 3, paper_params)
        with pytest.raises(InvalidParameterError):
            hecr_from_x_many(np.array([np.inf]), 3, paper_params)

    def test_finite_rows_match_scalar(self, paper_params):
        # The last X lies past the saturation bound: NaN here, a
        # refusal from the scalar path.
        bound = 1.0 / paper_params.A_minus_tau_delta
        xs = np.array([0.5, 10.0, 400.0, 2.0 * bound])
        out = hecr_from_x_many(xs, 6, paper_params)
        for x, h in zip(xs[:-1], out):
            assert h == hecr_from_x(float(x), 6, paper_params)
        assert np.isnan(out[-1])
        with pytest.raises(InvalidParameterError, match="saturation bound"):
            hecr_from_x(float(xs[-1]), 6, paper_params)

    def test_degenerate_gap_branch(self):
        # A = τδ needs π = τ(δ − 1) ≥ 0, so δ = 1 and π = 0 is the only
        # admissible corner: gap = A − τδ = 0 exactly.
        params = ModelParams(tau=0.1, pi=0.0, delta=1.0)
        assert params.A_minus_tau_delta == 0.0
        out = hecr_from_x_many(np.array([10.0, 1e9]), 2, params)
        assert out[0] == hecr_from_x(10.0, 2, params)
        assert np.isnan(out[1])  # n/x − A ≤ 0: scalar path raises
        with pytest.raises(InvalidParameterError, match="non-positive"):
            hecr_from_x(1e9, 2, params)


class TestXEvaluatorManyPreviews:
    def test_x_with_rho_many_matches_loop(self, paper_params, rng):
        row = rng.uniform(0.05, 1.0, size=9)
        ev = XEvaluator(row, paper_params)
        indices = np.arange(9)
        values = rng.uniform(0.01, 2.0, size=9)
        many = ev.x_with_rho_many(indices, values)
        for k, v, x in zip(indices, values, many):
            assert x == ev.x_with_rho(int(k), float(v))

    def test_validation(self, paper_params):
        ev = XEvaluator([1.0, 0.5], paper_params)
        with pytest.raises(InvalidParameterError):
            ev.x_with_rho_many(np.array([0, 5]), np.array([0.5, 0.5]))
        with pytest.raises(InvalidParameterError):
            ev.x_with_rho_many(np.array([0]), np.array([-1.0]))
        with pytest.raises(InvalidParameterError):
            ev.x_with_rho_many(np.array([[0]]), np.array([[0.5]]))


class TestPairwisePredictors:
    def test_moment_predictions_match_scalar(self, rng):
        a = rng.uniform(0.1, 1.0, size=(30, 6))
        b = rng.uniform(0.1, 1.0, size=(30, 6))
        ba, bb = ProfileBatch(a), ProfileBatch(b)
        for name, predictor in MOMENT_PREDICTORS.items():
            calls = moment_predictions(ba, bb, name)
            for i in range(30):
                assert calls[i] == predictor(Profile(a[i]), Profile(b[i]))

    def test_moment_tie_is_indeterminate(self):
        rows = np.array([[1.0, 0.5, 0.25]])
        batch = ProfileBatch(rows)
        assert moment_predictions(batch, ProfileBatch(rows.copy()),
                                  "variance")[0] == -1

    def test_unknown_statistic_rejected(self):
        batch = ProfileBatch(np.ones((1, 2)))
        with pytest.raises(InvalidParameterError):
            moment_predictions(batch, batch, "median")

    def test_variance_predictions_match_scalar(self, rng):
        a = rng.uniform(0.1, 1.0, size=(20, 5))
        b = np.sort(a, axis=1)[:, ::-1]  # permutation: means equal exactly
        calls = variance_predictions(ProfileBatch(a), ProfileBatch(b))
        for i in range(20):
            assert calls[i] == variance_prediction(Profile(a[i]),
                                                   Profile(b[i]))

    def test_variance_predictions_reject_unequal_means(self, rng):
        a = ProfileBatch(rng.uniform(0.1, 1.0, size=(4, 5)))
        b = ProfileBatch(rng.uniform(2.0, 3.0, size=(4, 5)))
        with pytest.raises(InvalidProfileError, match="equal mean"):
            variance_predictions(a, b)

    def test_minorization_predictions_match_scalar(self, rng):
        a = rng.uniform(0.1, 1.0, size=(30, 5))
        b = rng.uniform(0.1, 1.0, size=(30, 5))
        calls = minorization_predictions(ProfileBatch(a), ProfileBatch(b))
        for i in range(30):
            verdict = minorization_predicts(Profile(a[i]), Profile(b[i]))
            assert calls[i] == _VERDICT_CODES[verdict]

    def test_majorization_predictions_match_scalar(self, rng):
        a = rng.uniform(0.1, 1.0, size=(30, 5))
        b = np.sort(a, axis=1)  # same multiset per row ⇒ equal totals
        perm = rng.permutation(30)
        b = b[perm][np.argsort(perm)]  # keep alignment, shuffle nothing
        calls = majorization_predictions(ProfileBatch(a), ProfileBatch(b))
        for i in range(30):
            assert calls[i] == majorization_prediction(Profile(a[i]),
                                                       Profile(b[i]))

    def test_majorization_rejects_unequal_totals(self):
        a = ProfileBatch(np.array([[1.0, 1.0]]))
        b = ProfileBatch(np.array([[3.0, 3.0]]))
        with pytest.raises(InvalidProfileError):
            majorization_predictions(a, b)

    def test_shape_mismatch_rejected(self, rng):
        a = ProfileBatch(rng.uniform(0.1, 1.0, size=(3, 4)))
        b = ProfileBatch(rng.uniform(0.1, 1.0, size=(2, 4)))
        with pytest.raises(InvalidProfileError):
            moment_predictions(a, b)


class TestColumnCache:
    def test_columns_cached_per_params(self, rng):
        batch = ProfileBatch(rng.uniform(0.1, 1.0, size=(4, 3)))
        c1 = batch.columns(PAPER_TABLE1)
        assert batch.columns(PAPER_TABLE1) is c1
        other = ModelParams(tau=0.01, pi=0.001, delta=1.0)
        c2 = batch.columns(other)
        assert c2 is not c1
        assert batch.columns(PAPER_TABLE1) is c1

    def test_b_rho_column_is_bit_identical_product(self, rng):
        rows = rng.uniform(0.1, 1.0, size=(3, 4))
        batch = ProfileBatch(rows)
        np.testing.assert_array_equal(
            batch.columns(PAPER_TABLE1).b_rho, PAPER_TABLE1.B * rows)

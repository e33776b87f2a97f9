"""Scalar ↔ batch parity properties for the ProfileBatch kernels.

The columnar layer's contract (``repro.core.batch_kernels``): every
kernel agrees with its scalar counterpart *row for row*, bitwise — X,
work, HECR, the row statistics and all pairwise predictors.  Eq. (1)
and Proposition 1 are each implemented once and shared by both layers,
so the parity holds by construction; these properties drive random
``(m, n)`` batches, random environments and random single-ρ edit
sequences through both layers and compare, in the style of the
fast-path equivalence suite.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch_kernels import (
    ProfileBatch,
    majorization_predictions,
    minorization_predictions,
    moment_predictions,
    variance_predictions,
)
from repro.core.hecr import hecr, hecr_from_x
from repro.core.measure import XEvaluator, work_production, work_rate, x_measure
from repro.core.params import ModelParams
from repro.core.profile import Profile
from repro.errors import InvalidParameterError
from repro.predictors.dominance import DominanceVerdict, minorization_predicts
from repro.predictors.majorization import majorization_prediction
from repro.predictors.variance import MOMENT_PREDICTORS, variance_prediction
from repro.service.coalescer import solve_batch
from repro.stream.engine import _evaluate as stream_window_state

_VERDICT_CODES = {DominanceVerdict.FIRST_DOMINATES: 0,
                  DominanceVerdict.SECOND_DOMINATES: 1,
                  DominanceVerdict.INDETERMINATE: -1}

# -- strategies ------------------------------------------------------------

params_st = st.builds(
    ModelParams,
    tau=st.floats(min_value=1e-7, max_value=0.5),
    pi=st.floats(min_value=0.0, max_value=0.5),
    delta=st.floats(min_value=0.0, max_value=1.0),
)


@st.composite
def batches(draw, min_m=1, max_m=8, min_n=1, max_n=12):
    """A random (m, n) ρ-matrix with wide dynamic range."""
    m = draw(st.integers(min_value=min_m, max_value=max_m))
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    return 10.0 ** rng.uniform(-3, 1, size=(m, n))


@st.composite
def batch_pairs(draw):
    """Two aligned (m, n) matrices (independent rows)."""
    rows_a = draw(batches(min_n=2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows_b = 10.0 ** rng.uniform(-3, 1, size=rows_a.shape)
    return rows_a, rows_b


@st.composite
def edit_sequences(draw):
    """A matrix plus a sequence of per-row single-ρ edits."""
    rows = draw(batches())
    m, n = rows.shape
    steps = draw(st.integers(min_value=1, max_value=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edits = [(rng.integers(0, n, size=m), 10.0 ** rng.uniform(-3, 1, size=m))
             for _ in range(steps)]
    return rows, edits


# -- X / W / HECR parity ---------------------------------------------------

@given(rows=batches(), params=params_st)
@settings(max_examples=100, deadline=None)
def test_x_bitwise_parity(rows, params):
    xs = ProfileBatch(rows).x(params)
    for row, x in zip(rows, xs):
        assert x == x_measure(row, params)


@given(rows=batches(), params=params_st,
       lifespan=st.floats(min_value=1.0, max_value=1e4))
@settings(max_examples=60, deadline=None)
def test_work_bitwise_parity(rows, params, lifespan):
    batch = ProfileBatch(rows)
    xs = batch.x(params)
    rates = batch.work_rates(params, x=xs)
    work = batch.work_production(params, lifespan, x=xs)
    for row, x, rate, w in zip(rows, xs, rates, work):
        assert rate == work_rate(row, params, x=float(x))
        assert w == work_production(row, params, lifespan, x=float(x))


@given(rows=batches(), params=params_st)
@settings(max_examples=100, deadline=None)
def test_hecr_parity_including_refusals(rows, params):
    batch = ProfileBatch(rows)
    xs = batch.x(params)
    hs = batch.hecr(params, x=xs)
    n = rows.shape[1]
    for row, x, h in zip(rows, xs, hs):
        p = Profile(row)
        alone = ProfileBatch(p.rho[None]).hecr(params)[0]
        # What /v1/hecr answers and what a stream window over these
        # workers reports.
        served_ok, served = solve_batch(
            [("hecr", {"profile": tuple(row), "params": params})])[0]
        window = stream_window_state(dict(enumerate(row)), params, 1.0)
        try:
            scalar = hecr_from_x(float(x), n, params)
        except InvalidParameterError:
            # Scalar refusals (saturated / non-positive rate) must be
            # exactly the NaN rows — the negative-rate bugfix.
            assert np.isnan(h) and np.isnan(alone)
            assert not served_ok and window["hecr"] is None
        else:
            assert h == scalar
            assert hecr(p, params) == scalar
            assert alone == scalar
            assert served_ok and served["hecr"] == scalar
            assert window["hecr"] == scalar


@given(rows=batches())
@settings(max_examples=60, deadline=None)
def test_statistics_bitwise_parity(rows):
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


# -- predictor parity ------------------------------------------------------

@given(pair=batch_pairs())
@settings(max_examples=60, deadline=None)
def test_moment_and_dominance_parity(pair):
    rows_a, rows_b = pair
    ba, bb = ProfileBatch(rows_a), ProfileBatch(rows_b)
    for name, predictor in MOMENT_PREDICTORS.items():
        calls = moment_predictions(ba, bb, name)
        for i in range(len(rows_a)):
            assert calls[i] == predictor(Profile(rows_a[i]),
                                         Profile(rows_b[i])), name
    dominance = minorization_predictions(ba, bb)
    for i in range(len(rows_a)):
        verdict = minorization_predicts(Profile(rows_a[i]), Profile(rows_b[i]))
        assert dominance[i] == _VERDICT_CODES[verdict]


@given(rows=batches(min_n=2))
@settings(max_examples=60, deadline=None)
def test_variance_and_majorization_parity_on_permuted_rows(rows):
    # Row-wise permutations give exactly equal means/totals, the regime
    # where variance_prediction and majorization_prediction apply.
    rows_b = np.sort(rows, axis=1)[:, ::-1]
    ba, bb = ProfileBatch(rows), ProfileBatch(rows_b)
    var_calls = variance_predictions(ba, bb)
    maj_calls = majorization_predictions(ba, bb)
    for i in range(len(rows)):
        p1, p2 = Profile(rows[i]), Profile(rows_b[i])
        assert var_calls[i] == variance_prediction(p1, p2)
        assert maj_calls[i] == majorization_prediction(p1, p2)


# -- edit-sequence parity --------------------------------------------------

@given(case=edit_sequences(), params=params_st)
@settings(max_examples=60, deadline=None)
def test_edit_sequences_bitwise_parity(case, params):
    rows, edits = case
    m, _ = rows.shape
    evs = [XEvaluator(row, params) for row in rows]
    for indices, values in edits:
        for i, ev in enumerate(evs):
            k, v = int(indices[i]), float(values[i])
            many = ev.x_with_rho_many(np.array([k]), np.array([v]))
            assert many[0] == ev.x_with_rho(k, v)
            ev.set_rho(k, v)
            assert ev.x == x_measure(ev.rho, params)
    # After the whole sequence each committed state is its batch row.
    final = ProfileBatch(np.stack([ev.rho for ev in evs])).x(params)
    for i in range(m):
        assert final[i] == evs[i].x

"""Unit tests for repro.analysis.sensitivity."""

import numpy as np
import pytest

from repro.analysis.sensitivity import (
    find_tau_crossover,
    sweep_delta,
    sweep_pi,
    sweep_tau,
)
from repro.core.measure import x_measure
from repro.core.params import ModelParams
from repro.core.profile import Profile
from repro.errors import InvalidParameterError


class TestSweeps:
    def test_work_rate_monotone_decreasing_in_tau(self, table4_profile):
        sweep = sweep_tau(table4_profile, np.geomspace(1e-6, 0.1, 10))
        assert (np.diff(sweep.work_rate) < 0.0).all()

    def test_x_monotone_decreasing_in_pi(self, table4_profile):
        sweep = sweep_pi(table4_profile, np.linspace(0.0, 0.1, 8))
        assert (np.diff(sweep.x) < 0.0).all()

    def test_work_rate_decreasing_in_delta(self, table4_profile):
        # More results per unit of work = more result traffic = less work.
        sweep = sweep_delta(table4_profile, np.linspace(0.0, 1.0, 6), tau=1e-3)
        assert (np.diff(sweep.work_rate) < 0.0).all()

    def test_hecr_increases_with_tau(self, table4_profile):
        # Communication erodes the heterogeneous cluster's calibrated rate.
        sweep = sweep_tau(table4_profile, np.geomspace(1e-6, 0.05, 8))
        assert sweep.hecr[-1] > sweep.hecr[0]

    def test_rows_shape(self, table4_profile):
        sweep = sweep_tau(table4_profile, [1e-6, 1e-3])
        rows = sweep.as_rows()
        assert len(rows) == 2
        assert len(rows[0]) == 4

    def test_empty_grid_rejected(self, table4_profile):
        with pytest.raises(InvalidParameterError):
            sweep_tau(table4_profile, [])


class TestCrossover:
    def test_stable_ranking_returns_none(self):
        # Minorizing pairs never flip (Prop. 3 territory).
        p1, p2 = Profile([0.9, 0.4]), Profile([1.0, 0.5])
        assert find_tau_crossover(p1, p2) is None

    def test_flip_found_and_verified(self):
        # A heterogeneous cluster beats a homogeneous one at low tau but
        # can lose once communication dominates (its fast machine starves).
        p1 = Profile([1.0, 0.05])
        p2 = Profile([0.45, 0.45])
        crossover = find_tau_crossover(p1, p2, pi=1e-5, delta=1.0,
                                       tau_low=1e-6, tau_high=5.0)
        if crossover is None:
            pytest.skip("pair is tau-stable under these parameters")
        lo = ModelParams(tau=crossover * 0.5, pi=1e-5, delta=1.0)
        hi = ModelParams(tau=min(crossover * 2.0, 5.0), pi=1e-5, delta=1.0)
        sign_lo = np.sign(x_measure(p1, lo) - x_measure(p2, lo))
        sign_hi = np.sign(x_measure(p1, hi) - x_measure(p2, hi))
        assert sign_lo != sign_hi

    @pytest.mark.parametrize("xtol", [1e-12, 1e-8, 1e-4])
    def test_bisection_matches_brentq(self, xtol):
        # scipy's Brent solver is the oracle for the bisection refine:
        # both narrow the same grid bracket to within xtol of the root.
        from scipy.optimize import brentq

        p1, p2 = Profile([1.0, 0.05]), Profile([0.45, 0.45])
        crossover = find_tau_crossover(p1, p2, pi=1e-5, delta=1.0,
                                       tau_low=1e-6, tau_high=5.0, xtol=xtol)
        assert crossover is not None
        grid = np.geomspace(1e-6, 5.0, 64)
        k = int(np.searchsorted(grid, crossover)) - 1

        def diff(tau):
            params = ModelParams(tau=tau, pi=1e-5, delta=1.0)
            return x_measure(p1, params) - x_measure(p2, params)

        oracle = brentq(diff, grid[k], grid[k + 1], xtol=xtol)
        assert abs(crossover - oracle) <= xtol

    def test_size_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            find_tau_crossover(Profile([1.0]), Profile([1.0, 0.5]))

    def test_bad_bracket_rejected(self, table4_profile):
        with pytest.raises(InvalidParameterError):
            find_tau_crossover(table4_profile, table4_profile,
                               tau_low=1.0, tau_high=0.5)

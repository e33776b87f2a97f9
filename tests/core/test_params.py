"""Unit tests for repro.core.params (paper §2.1, Tables 1–2)."""

import math

import pytest

from repro.core.params import (
    FIG34_CALIBRATION,
    NEGLIGIBLE_OVERHEADS,
    PAPER_TABLE1,
    ModelParams,
)
from repro.errors import InvalidParameterError


class TestConstruction:
    def test_table1_values(self):
        assert PAPER_TABLE1.tau == 1e-6
        assert PAPER_TABLE1.pi == 1e-5
        assert PAPER_TABLE1.delta == 1.0

    def test_derived_A(self):
        assert PAPER_TABLE1.A == pytest.approx(1.1e-5)

    def test_derived_B(self):
        assert PAPER_TABLE1.B == pytest.approx(1.00002)

    def test_tau_delta(self):
        p = ModelParams(tau=2.0, pi=0.5, delta=0.25)
        assert p.tau_delta == pytest.approx(0.5)

    def test_zero_pi_allowed(self):
        p = ModelParams(tau=1e-3, pi=0.0)
        assert p.B == 1.0

    def test_negative_tau_rejected(self):
        with pytest.raises(InvalidParameterError):
            ModelParams(tau=-1e-6, pi=1e-5)

    def test_zero_tau_rejected(self):
        with pytest.raises(InvalidParameterError):
            ModelParams(tau=0.0, pi=1e-5)

    def test_negative_pi_rejected(self):
        with pytest.raises(InvalidParameterError):
            ModelParams(tau=1e-6, pi=-1.0)

    def test_delta_above_one_rejected(self):
        with pytest.raises(InvalidParameterError):
            ModelParams(tau=1e-6, pi=1e-5, delta=1.5)

    def test_delta_below_zero_rejected(self):
        with pytest.raises(InvalidParameterError):
            ModelParams(tau=1e-6, pi=1e-5, delta=-0.1)

    def test_nan_rejected(self):
        with pytest.raises(InvalidParameterError):
            ModelParams(tau=float("nan"), pi=1e-5)

    def test_inf_rejected(self):
        with pytest.raises(InvalidParameterError):
            ModelParams(tau=float("inf"), pi=1e-5)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            PAPER_TABLE1.tau = 2.0  # type: ignore[misc]


class TestDerivedConstantsFinite:
    """Finite τ, π, δ whose derived constants overflow are refused, so no
    formula is handed an infinite ``A``/``B`` and answers NaN."""

    @pytest.mark.parametrize("tau, pi, delta, name", [
        (0.1, 1e308, 1.0, "B"),              # B = 1 + 2π overflows
        (1e308, 1e308, 1.0, "A"),            # A = π + τ overflows
        (1e300, 0.0, 1.0, "speedup_threshold"),   # A·τδ overflows
        (1e200, 1e200, 1.0, "speedup_threshold"),  # inf / inf
    ])
    def test_overflowing_parameters_rejected(self, tau, pi, delta, name):
        with pytest.raises(InvalidParameterError, match=name):
            ModelParams(tau=tau, pi=pi, delta=delta)

    def test_large_finite_parameters_still_build(self):
        p = ModelParams(tau=1e100, pi=1e100, delta=0.5)
        for value in (p.A, p.B, p.tau_delta, p.speedup_threshold):
            assert math.isfinite(value)


class TestStandingAssumption:
    def test_paper_params_satisfy(self):
        assert PAPER_TABLE1.satisfies_standing_assumption

    def test_fig34_satisfy(self):
        assert FIG34_CALIBRATION.satisfies_standing_assumption

    def test_tau_delta_leq_A_always_for_delta_leq_1(self):
        p = ModelParams(tau=0.9, pi=0.0, delta=1.0)
        assert p.tau_delta <= p.A

    def test_extreme_tau_violates(self):
        # τ > 1 + δπ makes A > B.
        p = ModelParams(tau=5.0, pi=0.0, delta=0.0)
        assert not p.satisfies_standing_assumption
        with pytest.raises(InvalidParameterError):
            p.require_standing_assumption()

    def test_require_passes_silently(self):
        PAPER_TABLE1.require_standing_assumption()


class TestThreshold:
    def test_threshold_formula(self):
        p = ModelParams(tau=0.2, pi=0.0, delta=1.0)
        assert p.speedup_threshold == pytest.approx(0.2 * 0.2 / 1.0)

    def test_fig34_threshold_in_window(self):
        # The Fig-3/4 phase structure needs the threshold in (1/32, 1/16).
        assert 1 / 32 < FIG34_CALIBRATION.speedup_threshold < 1 / 16

    def test_delta_zero_threshold_zero(self):
        p = ModelParams(tau=0.1, pi=0.01, delta=0.0)
        assert p.speedup_threshold == 0.0


class TestDegenerate:
    def test_paper_not_degenerate(self):
        assert not PAPER_TABLE1.is_degenerate

    def test_pi_zero_delta_one_is_degenerate(self):
        # A = π + τ = τ = τδ exactly when π = 0 and δ = 1.
        p = ModelParams(tau=0.3, pi=0.0, delta=1.0)
        assert p.is_degenerate


class TestExactTwin:
    def test_exact_matches_float(self):
        exact = PAPER_TABLE1.exact()
        assert float(exact.A) == PAPER_TABLE1.A
        assert float(exact.B) == PAPER_TABLE1.B
        assert float(exact.tau_delta) == PAPER_TABLE1.tau_delta

    def test_exact_threshold(self):
        p = ModelParams(tau=0.5, pi=0.25, delta=1.0)
        assert float(p.exact().speedup_threshold) == pytest.approx(p.speedup_threshold)


class TestFromRates:
    def test_bandwidth_inverts(self):
        p = ModelParams.from_rates(bandwidth=1e6, package_rate=1e5)
        assert p.tau == pytest.approx(1e-6)
        assert p.pi == pytest.approx(1e-5)

    def test_infinite_package_rate(self):
        p = ModelParams.from_rates(bandwidth=10.0, package_rate=math.inf)
        assert p.pi == 0.0

    def test_bad_bandwidth(self):
        with pytest.raises(InvalidParameterError):
            ModelParams.from_rates(bandwidth=0.0, package_rate=1.0)

    def test_bad_package_rate(self):
        with pytest.raises(InvalidParameterError):
            ModelParams.from_rates(bandwidth=1.0, package_rate=-5.0)


class TestDerivedTable:
    def test_keys(self):
        table = PAPER_TABLE1.derived_table()
        assert set(table) == {"A", "B", "tau_delta", "A_minus_tau_delta",
                              "speedup_threshold"}

    def test_negligible_overheads_sane(self):
        assert NEGLIGIBLE_OVERHEADS.B == 1.0
        assert NEGLIGIBLE_OVERHEADS.A == pytest.approx(1e-9)

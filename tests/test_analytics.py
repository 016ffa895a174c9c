import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msdistill.analytics import (
    ThresholdError,
    effective_rate,
    fifteen_to_one,
    hadamard_step_counts,
    output_error_bound,
    overhead_exponent,
    predistill_chain,
    predistill_cost,
    required_intermediate_error,
    t_exponent,
)
from msdistill.inner_codes import CssCodeParams, gv_params
from msdistill.logdomain import ONE, ZERO, LogScalar


class TestFifteenToOne:
    def test_standard_input(self):
        report = fifteen_to_one(0.1)
        assert report.eps_out.to_float() == pytest.approx(0.035, rel=1e-12)
        assert report.success_prob.to_float() == pytest.approx(0.9**15, rel=1e-10)
        assert report.inputs_per_output.to_float() == pytest.approx(15, rel=1e-12)

    def test_second_stage(self):
        report = fifteen_to_one(0.035)
        assert report.eps_out.to_float() == pytest.approx(35 * 0.035**3, rel=1e-12)

    @given(st.floats(min_value=1e-8, max_value=1e-4))
    def test_leading_coefficient(self, eps):
        report = fifteen_to_one(eps)
        assert report.eps_out.to_float() / eps**3 == pytest.approx(35, rel=1e-9)

    def test_guards(self):
        with pytest.raises(ValueError):
            fifteen_to_one(1.0)
        with pytest.raises(ValueError):
            fifteen_to_one(0.0)


class TestPredistillChain:
    def test_three_rounds(self):
        report = predistill_chain(3, 0.1)
        assert report.eps_out.to_float() == pytest.approx(1.18e-7, rel=0.01)

    def test_zero_rounds_identity(self):
        report = predistill_chain(0, 0.1)
        assert report.eps_out.to_float() == pytest.approx(0.1)
        assert report.inputs_per_output == ONE
        assert report.success_prob == ONE

    def test_four_rounds_log_domain(self):
        report = predistill_chain(4, 0.1)
        expected_log10 = 40 * math.log10(35) - 81
        assert report.eps_out.log10 == pytest.approx(expected_log10, abs=1e-9)

    # eps0 below the 1/sqrt(35) break-even so the chain stays in (0, 1)
    @given(st.integers(0, 6), st.floats(min_value=1e-3, max_value=0.15))
    @settings(max_examples=40)
    def test_closed_form_matches_composition(self, rounds, eps0):
        closed = predistill_chain(rounds, eps0).eps_out
        eps = LogScalar.from_float(eps0)
        for _ in range(rounds):
            eps = fifteen_to_one(eps).eps_out
        assert closed.log10 == pytest.approx(eps.log10, abs=1e-9)

    def test_negative_rounds(self):
        with pytest.raises(ValueError):
            predistill_chain(-1, 0.1)

    def test_input_above_threshold_diverges(self):
        # 0.2 -> 0.28 -> 0.77 -> 15.8: the fourth round's input is not an error rate
        predistill_chain(3, 0.2)
        with pytest.raises(ThresholdError, match="round 4"):
            predistill_chain(4, 0.2)


class TestHadamardCounts:
    def test_steane_schedule(self):
        assert hadamard_step_counts(CssCodeParams(7, 1, 3), 4, 4) == 60

    def test_no_checks(self):
        assert hadamard_step_counts(CssCodeParams(7, 1, 3), 9, 0) == 9

    def test_headline_code(self):
        assert hadamard_step_counts(CssCodeParams(8104, 8002, 9), 8002, 4) == 72834

    @given(st.integers(1, 50))
    def test_closed_form_agreement(self, scale):
        # a_n = A*k, m = A*(d-1)/2: the two count forms coincide exactly
        params = CssCodeParams(7, 1, 3)
        a_n, m = scale * params.k_q, scale * (params.d_q - 1) // 2
        closed = a_n * (params.d_q + (params.d_q - 1) * (params.n_q // params.k_q - 1))
        assert hadamard_step_counts(params, a_n, m) == closed


class TestOverheadExponent:
    def test_steane(self):
        assert overhead_exponent(CssCodeParams(7, 1, 3)) == pytest.approx(
            math.log(15) / math.log(3), rel=1e-12
        )

    def test_headline_code(self):
        assert overhead_exponent(CssCodeParams(8104, 8002, 9)) == pytest.approx(
            1.0051, abs=5e-4
        )

    def test_distance_guard(self):
        with pytest.raises(ValueError):
            overhead_exponent(CssCodeParams(7, 1, 1))

    @given(
        st.integers(2, 1000),
        st.integers(1, 999),
        st.integers(2, 40),
    )
    @settings(max_examples=200)
    def test_strictly_above_one(self, n, k, d):
        if k >= n:
            return
        assert overhead_exponent(CssCodeParams(n, k, d)) > 1.0


class TestRequiredIntermediateError:
    def test_headline_target(self):
        eps = required_intermediate_error(CssCodeParams(8104, 8002, 9), 8002**9)
        assert eps.log10 == pytest.approx(-359.9, abs=0.3)

    def test_steane_unit_scale(self):
        eps = required_intermediate_error(CssCodeParams(7, 1, 3), 1)
        assert eps.to_float() == pytest.approx((1 / 21) ** 3, rel=1e-10)

    def test_distance_one_degenerate(self):
        eps = required_intermediate_error(CssCodeParams(5, 2, 1), 10)
        assert eps.to_float() == pytest.approx(1 / 50, rel=1e-10)

    def test_scale_guard(self):
        with pytest.raises(ValueError):
            required_intermediate_error(CssCodeParams(7, 1, 3), 0)


class TestOutputErrorBound:
    def test_small_instance(self):
        bound = output_error_bound(60, 3, 1e-4)
        assert bound.to_float() == pytest.approx(34220e-12, rel=1e-9)

    def test_zero_eps(self):
        assert output_error_bound(60, 3, ZERO).is_zero()

    def test_vanishing_at_design_point(self):
        bound = output_error_bound(LogScalar.from_log10(40), 9, LogScalar.from_log10(-360))
        assert bound.log10 == pytest.approx(9 * 40 - 9 * 360, abs=10)

    def test_monotone_in_eps_and_n(self):
        grid = [output_error_bound(100, 3, e) for e in (1e-6, 1e-5, 1e-4)]
        assert grid[0] < grid[1] < grid[2]
        sizes = [output_error_bound(n, 3, 1e-4) for n in (50, 100, 200)]
        assert sizes[0] < sizes[1] < sizes[2]


class TestPredistillCost:
    def test_unit_target(self):
        assert predistill_cost(LogScalar.from_float(math.exp(-1))) == pytest.approx(1.0)

    def test_deep_target(self):
        cost = predistill_cost(LogScalar.from_log10(-360))
        assert cost == pytest.approx((360 * math.log(10)) ** 2.46, rel=1e-9)

    def test_zero_exponent_is_constant(self):
        assert predistill_cost(LogScalar.from_log10(-50), gamma_pre=0.0, cost_const=7.5) == 7.5


class TestTExponent:
    def test_headline_point(self):
        t = t_exponent(CssCodeParams(8104, 8002, 9), 8002**9)
        assert t == pytest.approx(1.21, abs=0.01)

    def test_degenerate_distance_one(self):
        t = t_exponent(CssCodeParams(100, 50, 1), 1000)
        assert 1.0 < t < 1.6

    def test_monotone_trend(self):
        values = []
        for exp in range(10, 21):
            params = gv_params(2**exp)
            values.append(t_exponent(params, params.k_q**params.d_q))
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_guards(self):
        with pytest.raises(ValueError):
            t_exponent(CssCodeParams(7, 1, 3), 1, xi=0.0)


class TestEffectiveRate:
    def test_perfect_post_selection(self):
        rate = effective_rate(4, 60, ZERO, 60)
        assert rate.to_float() == pytest.approx(4 / 60, rel=1e-12)

    def test_small_instance(self):
        rate = effective_rate(4, 60, 1e-4, 60)
        assert rate.to_float() == pytest.approx((1 - 1e-4) ** 60 * 4 / 60, rel=1e-9)

    def test_tiny_eps_huge_count(self):
        rate = effective_rate(
            4, 60, LogScalar.from_log10(-360), LogScalar.from_log10(40)
        )
        assert rate.to_float() == pytest.approx(4 / 60, rel=1e-12)

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from msdistill.logdomain import (
    ONE,
    ZERO,
    LogScalar,
    log10_binomial,
    log10_one_minus,
    pow_one_minus,
)

magnitudes = st.floats(min_value=-300, max_value=300)


class TestRoundTrip:
    @given(magnitudes, st.sampled_from([1, -1]))
    def test_float_round_trip(self, log10, sign):
        x = sign * 10.0**log10
        back = LogScalar.from_float(x).to_float()
        assert back == pytest.approx(x, rel=1e-12)

    def test_zero(self):
        assert LogScalar.from_float(0.0).is_zero()
        assert ZERO.to_float() == 0.0

    def test_underflow_to_float(self):
        assert LogScalar.from_log10(-400).to_float() == 0.0
        assert LogScalar.from_log10(400).to_float() == math.inf

    def test_big_int_coercion(self):
        n = 117**6  # exceeds nothing, but 8002**9 does
        assert LogScalar.coerce(n).log10 == pytest.approx(math.log10(n), rel=1e-14)
        huge = 8002**9
        assert LogScalar.coerce(huge).log10 == pytest.approx(9 * math.log10(8002), rel=1e-14)


class TestArithmetic:
    @given(
        st.floats(min_value=1e-30, max_value=1.0),
        st.floats(min_value=1e-30, max_value=1.0),
    )
    def test_mul_matches_floats(self, x, y):
        got = (LogScalar.from_float(x) * LogScalar.from_float(y)).to_float()
        assert got == pytest.approx(x * y, rel=1e-12)

    @given(st.floats(min_value=1e-30, max_value=1.0), st.integers(1, 20))
    def test_pow_matches_floats(self, x, k):
        got = (LogScalar.from_float(x) ** k).to_float()
        assert got == pytest.approx(x**k, rel=1e-11)

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    def test_negative_pow_rejected(self):
        with pytest.raises(ValueError):
            (-ONE) ** 0.5

    def test_signs(self):
        assert (-ONE) * (-ONE) == ONE
        assert (ONE * ZERO).is_zero()

    @given(
        st.floats(min_value=-250, max_value=250),
        st.floats(min_value=-250, max_value=250),
    )
    def test_ordering_consistent_with_magnitudes(self, a, b):
        x, y = LogScalar.from_log10(a), LogScalar.from_log10(b)
        assert (x < y) == (a < b)
        assert (x == y) == (a == b)

    def test_ordering_across_signs(self):
        assert -ONE < ZERO < ONE
        assert LogScalar.from_log10(5, sign=-1) < LogScalar.from_log10(-5, sign=-1)

    def test_ln(self):
        assert LogScalar.from_float(math.e).ln() == pytest.approx(1.0)
        with pytest.raises(ValueError):
            ZERO.ln()


class TestOneMinus:
    def test_zero_eps(self):
        assert log10_one_minus(ZERO) == 0.0
        assert pow_one_minus(ZERO, 10**9) == ONE

    def test_moderate_eps_matches_math(self):
        eps = LogScalar.from_float(0.1)
        assert 10.0 ** log10_one_minus(eps) == pytest.approx(0.9, rel=1e-14)
        assert pow_one_minus(eps, 15).to_float() == pytest.approx(0.9**15, rel=1e-12)

    def test_tiny_eps_series(self):
        eps = LogScalar.from_log10(-360)
        # (1 - 1e-360)^(1e40) = exp(-1e-320) ~ 1 - 1e-320
        result = pow_one_minus(eps, LogScalar.from_log10(40))
        assert result.log10 == pytest.approx(-(10.0**-320) / math.log(10), rel=1e-6)

    def test_collapse_for_huge_counts(self):
        # (1 - 1e-4)^(1e20) is effectively zero
        result = pow_one_minus(LogScalar.from_float(1e-4), LogScalar.from_log10(20))
        assert result.log10 < -1e10

    def test_rejects_eps_out_of_range(self):
        with pytest.raises(ValueError):
            log10_one_minus(LogScalar.from_float(1.5))
        with pytest.raises(ValueError):
            log10_one_minus(-ONE)


class TestOneZeroNoNaN:
    def test_collapsed_power_is_the_zero(self):
        result = pow_one_minus(LogScalar.from_float(0.5), 10**400)
        assert result.is_zero()
        assert (result.sign, result.log10) == (0, 0.0)
        assert result == ZERO and hash(result) == hash(ZERO)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_rejected(self, x):
        with pytest.raises(ValueError):
            LogScalar.from_float(x)
        with pytest.raises(ValueError):
            LogScalar.coerce(x)

    def test_nan_magnitude_rejected(self):
        with pytest.raises(ValueError):
            LogScalar.from_log10(math.nan)
        with pytest.raises(ValueError):
            LogScalar.from_log10(math.inf) / LogScalar.from_log10(math.inf)

    @given(st.sampled_from([-1, 0, 1]), st.floats(allow_nan=True, allow_infinity=True))
    @example(1, -math.inf)
    @example(-1, -math.inf)
    @example(0, 7.5)
    def test_every_zero_is_one_zero(self, sign, log10):
        if math.isnan(log10):
            with pytest.raises(ValueError):
                LogScalar(sign, log10)
            return
        value = LogScalar(sign, log10)
        assert value.is_zero() == (sign == 0 or log10 == -math.inf)
        if value.is_zero():
            assert (value.sign, value.log10) == (0, 0.0) and value == ZERO
        else:
            assert (value.sign, value.log10) == (sign, log10)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_from_float_zero_iff_zero(self, x):
        assert LogScalar.from_float(x).is_zero() == (x == 0)


class TestLogBinomial:
    @given(st.integers(1, 300), st.integers(0, 300))
    def test_matches_comb(self, n, k):
        if k > n:
            return
        assert log10_binomial(n, k) == pytest.approx(
            math.log10(math.comb(n, k)), abs=1e-9
        )

    def test_huge_n_uses_power_form(self):
        n = LogScalar.from_log10(40)
        expected = 9 * 40 - math.log10(math.factorial(9))
        assert log10_binomial(n, 9) == pytest.approx(expected, rel=1e-12)

    def test_k_zero(self):
        assert log10_binomial(10, 0) == 0.0

    def test_k_exceeds_n(self):
        with pytest.raises(ValueError):
            log10_binomial(5, 6)

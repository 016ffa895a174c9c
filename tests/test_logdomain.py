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
nonnegatives = st.just(0.0) | st.floats(min_value=1e-100, max_value=1e100)


class TestRoundTrip:
    @given(magnitudes)
    def test_float_round_trip(self, log10):
        x = 10.0**log10
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

    @pytest.mark.parametrize("exponent", [0, -1, -0.5])
    def test_zero_to_nonpositive_power_rejected(self, exponent):
        with pytest.raises(ValueError):
            ZERO**exponent

    @given(nonnegatives, nonnegatives, st.integers(-2, 3))
    @example(0.0, 2.5, 2)
    @example(2.5, 0.0, 2)
    @example(0.0, 0.0, 1)
    def test_operations_match_float_arithmetic(self, x, y, k):
        # values within 1e+-100, so every float result below is in range
        big_x, big_y = LogScalar.from_float(x), LogScalar.from_float(y)
        assert (big_x * big_y).to_float() == pytest.approx(x * y, rel=1e-12)
        assert (big_x * y).to_float() == pytest.approx(x * y, rel=1e-12)
        if y == 0:
            with pytest.raises(ZeroDivisionError):
                big_x / big_y
        else:
            assert (big_x / big_y).to_float() == pytest.approx(x / y, rel=1e-12)
        if x == 0 and k <= 0:
            with pytest.raises(ValueError):
                big_x**k
        else:
            assert (big_x**k).to_float() == pytest.approx(x**k, rel=1e-11)
        if big_x < big_y:
            assert x < y
        if x < y:  # log10 is monotone, though not strictly at float resolution
            assert big_x <= big_y and big_x <= y
        if x == y:
            assert big_x == big_y == y and hash(big_x) == hash(big_y)

    @given(
        st.floats(min_value=-250, max_value=250),
        st.floats(min_value=-250, max_value=250),
    )
    def test_ordering_consistent_with_magnitudes(self, a, b):
        x, y = LogScalar.from_log10(a), LogScalar.from_log10(b)
        assert (x < y) == (a < b)
        assert (x == y) == (a == b)

    def test_zero_is_below_every_positive_value(self):
        assert ZERO < LogScalar.from_log10(-1e300) < ONE
        assert ZERO == 0 and ZERO < 1e-320

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
            log10_one_minus(ONE)


class TestOneZeroNoNaN:
    def test_collapsed_power_is_the_zero(self):
        result = pow_one_minus(LogScalar.from_float(0.5), 10**400)
        assert result.is_zero() and result.log10 == -math.inf
        assert result == ZERO and hash(result) == hash(ZERO)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_rejected(self, x):
        with pytest.raises(ValueError):
            LogScalar.from_float(x)
        with pytest.raises(ValueError):
            LogScalar.coerce(x)

    @pytest.mark.parametrize(
        "build, x",
        [(build, x) for build in (LogScalar, LogScalar.from_log10) for x in (math.nan, math.inf)]
        + [(build, x)
           for build in (LogScalar.from_float, LogScalar.coerce)
           for x in (math.nan, math.inf, -math.inf, -1.0, -1e-300, -1, -(10**400))],
        ids=repr,
    )
    def test_nan_infinity_and_negatives_rejected(self, build, x):
        # LogScalar(x) and from_log10 take a log10, where a negative is a value below 1
        with pytest.raises(ValueError):
            build(x)

    @given(st.just(-math.inf) | st.floats(allow_nan=False, allow_infinity=False))
    @example(-0.0)
    def test_every_zero_is_one_zero(self, log10):
        value = LogScalar(log10)
        assert value.is_zero() == (log10 == -math.inf) == (value == ZERO)
        assert value.log10 == log10

    @given(st.floats(min_value=0.0, allow_infinity=False))
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

"""Nonnegative log-domain scalars for probabilities far below float range."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import total_ordering

_LN10 = math.log(10.0)
_NEG_INF = -math.inf


@total_ordering
@dataclass(frozen=True)
class LogScalar:
    """A nonnegative real number stored as its log10; zero is log10 = -inf.

    Output error rates in this toolkit reach 1e-360 and below, so probabilities
    and rates cross module boundaries in this representation rather than as
    floats. Products, quotients and powers are sums, differences and
    multiples of ``log10``, and ordering is that of ``log10``.
    """

    log10: float

    def __post_init__(self) -> None:
        if not self.log10 < math.inf:  # NaN or +inf
            raise ValueError(f"log10 must be a number below +inf, got {self.log10}")

    @classmethod
    def from_float(cls, x: float | int) -> "LogScalar":
        if not 0 <= x < math.inf:  # negative, NaN or +inf
            raise ValueError(f"expected a finite nonnegative number, got {x}")
        # math.log10 also takes ints beyond float range, such as A = k**d
        return cls(math.log10(x) if x else _NEG_INF)

    @classmethod
    def from_log10(cls, log10: float) -> "LogScalar":
        return cls(float(log10))

    @classmethod
    def coerce(cls, x: "LogScalar | float | int") -> "LogScalar":
        return x if isinstance(x, LogScalar) else cls.from_float(x)

    def to_float(self) -> float:
        return math.inf if self.log10 > 308 else 10.0**self.log10

    def is_zero(self) -> bool:
        return self.log10 == _NEG_INF

    def __mul__(self, other: "LogScalar | float | int") -> "LogScalar":
        return LogScalar(self.log10 + LogScalar.coerce(other).log10)

    __rmul__ = __mul__

    def __truediv__(self, other: "LogScalar | float | int") -> "LogScalar":
        other = LogScalar.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("log-domain division by zero")
        return LogScalar(self.log10 - other.log10)

    def __pow__(self, exponent: float) -> "LogScalar":
        if self.is_zero() and exponent <= 0:
            raise ValueError("0 to a nonpositive power")
        return LogScalar(self.log10 * exponent)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (LogScalar, float, int)):
            return NotImplemented
        return self.log10 == LogScalar.coerce(other).log10

    def __lt__(self, other: "LogScalar | float | int") -> bool:
        return self.log10 < LogScalar.coerce(other).log10

    def __hash__(self) -> int:
        return hash(self.log10)

    def __repr__(self) -> str:
        return "LogScalar(0)" if self.is_zero() else f"LogScalar(1e{self.log10:+.6f})"

    def ln(self) -> float:
        """Natural log of a positive value, as an ordinary float."""
        if self.is_zero():
            raise ValueError("log of zero")
        return self.log10 * _LN10


ZERO = LogScalar(_NEG_INF)
ONE = LogScalar(0.0)


def log10_one_minus(eps: LogScalar) -> float:
    """log10(1 - eps) for 0 <= eps < 1, stable for eps far below float range."""
    if eps >= ONE:
        raise ValueError("expected 0 <= eps < 1")
    if eps.log10 < -15:
        # log(1-x) ~ -x; the quadratic correction is below double precision
        return -(10.0**eps.log10) / _LN10
    return math.log1p(-eps.to_float()) / _LN10


def pow_one_minus(eps: LogScalar, count: "LogScalar | float | int") -> LogScalar:
    """(1 - eps)**count in the log domain; count may itself be huge."""
    log10_base = log10_one_minus(eps)
    if log10_base == 0.0:
        return ONE
    # count * log10(1-eps), keeping the product in log space to dodge overflow
    magnitude = LogScalar.coerce(count).log10 + math.log10(-log10_base)
    return LogScalar(-(10.0**magnitude) if magnitude < 308 else _NEG_INF)


def log10_binomial(n: "LogScalar | float | int", k: int) -> float:
    """log10 of the binomial coefficient C(n, k); n may exceed float range."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return 0.0
    n = LogScalar.coerce(n)
    log_k_fact = math.lgamma(k + 1) / _LN10
    if n.log10 > 15:
        # n >> k: C(n,k) = n^k / k! to double precision
        return k * n.log10 - log_k_fact
    n_f = n.to_float()
    if k > n_f + 1e-6:  # tolerate round-trip error when k == n
        raise ValueError("k exceeds n")
    return (math.lgamma(n_f + 1) - math.lgamma(n_f - k + 1)) / _LN10 - log_k_fact

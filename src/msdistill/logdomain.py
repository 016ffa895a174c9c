"""Signed log-domain scalars for probabilities far below float range."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import total_ordering

_LN10 = math.log(10.0)
_NEG_INF = -math.inf


@total_ordering
@dataclass(frozen=True)
class LogScalar:
    """A real number stored as sign and log10 of its magnitude.

    Output error rates in this toolkit reach 1e-360 and below, so probabilities
    and rates cross module boundaries in this representation rather than as
    floats.
    """

    sign: int
    log10: float  # 0.0 when sign == 0: zero has one representation

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        if self.sign == 0 or not self.log10 > _NEG_INF:  # zero, -inf or NaN
            if math.isnan(self.log10):
                raise ValueError("log10 magnitude is NaN")
            # frozen: set the fields of the one zero directly
            object.__setattr__(self, "sign", 0)
            object.__setattr__(self, "log10", 0.0)

    @classmethod
    def from_float(cls, x: float) -> "LogScalar":
        if not math.isfinite(x):
            raise ValueError(f"expected a finite number, got {x}")
        if x == 0:
            return cls(0, 0.0)
        return cls(1 if x > 0 else -1, math.log10(abs(x)))

    @classmethod
    def from_log10(cls, log10: float, sign: int = 1) -> "LogScalar":
        return cls(sign, float(log10))

    @classmethod
    def coerce(cls, x: "LogScalar | float | int") -> "LogScalar":
        if isinstance(x, LogScalar):
            return x
        if isinstance(x, int):
            # big integers (e.g. A = k**d) exceed float range; log10 is exact enough
            if x == 0:
                return cls(0, 0.0)
            return cls(1 if x > 0 else -1, math.log10(abs(x)))
        return cls.from_float(float(x))

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        if self.log10 > 308:
            return math.inf * self.sign
        if self.log10 < -320:
            return 0.0
        return self.sign * 10.0**self.log10

    def is_zero(self) -> bool:
        return self.sign == 0

    def __mul__(self, other: "LogScalar | float | int") -> "LogScalar":
        other = LogScalar.coerce(other)
        if self.sign == 0 or other.sign == 0:
            return LogScalar(0, 0.0)
        return LogScalar(self.sign * other.sign, self.log10 + other.log10)

    __rmul__ = __mul__

    def __truediv__(self, other: "LogScalar | float | int") -> "LogScalar":
        other = LogScalar.coerce(other)
        if other.sign == 0:
            raise ZeroDivisionError("log-domain division by zero")
        if self.sign == 0:
            return LogScalar(0, 0.0)
        return LogScalar(self.sign * other.sign, self.log10 - other.log10)

    def __pow__(self, exponent: float) -> "LogScalar":
        if self.sign == 0:
            if exponent <= 0:
                raise ValueError("0 to a nonpositive power")
            return LogScalar(0, 0.0)
        if self.sign < 0:
            raise ValueError("negative base with real exponent")
        return LogScalar(1, self.log10 * exponent)

    def __neg__(self) -> "LogScalar":
        return LogScalar(-self.sign, self.log10)

    def _key(self) -> tuple[int, float]:
        # total order consistent with real-number ordering
        return (self.sign, self.sign * self.log10)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (LogScalar, float, int)):
            return NotImplemented
        return self._key() == LogScalar.coerce(other)._key()

    def __lt__(self, other: "LogScalar | float | int") -> bool:
        return self._key() < LogScalar.coerce(other)._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        if self.sign == 0:
            return "LogScalar(0)"
        s = "-" if self.sign < 0 else ""
        return f"LogScalar({s}1e{self.log10:+.6f})"

    def ln(self) -> float:
        """Natural log of a positive value, as an ordinary float."""
        if self.sign <= 0:
            raise ValueError("log of a nonpositive value")
        return self.log10 * _LN10


ZERO = LogScalar(0, 0.0)
ONE = LogScalar(1, 0.0)


def log10_one_minus(eps: LogScalar) -> float:
    """log10(1 - eps) for 0 <= eps < 1, stable for eps far below float range."""
    if eps.sign == 0:
        return 0.0
    if eps.sign < 0 or eps >= ONE:
        raise ValueError("expected 0 <= eps < 1")
    if eps.log10 < -15:
        # log(1-x) ~ -x; the quadratic correction is below double precision
        return -(10.0**eps.log10) / _LN10
    return math.log1p(-eps.to_float()) / _LN10


def pow_one_minus(eps: LogScalar, count: "LogScalar | float | int") -> LogScalar:
    """(1 - eps)**count in the log domain; count may itself be huge."""
    count = LogScalar.coerce(count)
    if count.sign == 0:
        return ONE
    log10_base = log10_one_minus(eps)
    if log10_base == 0.0:
        return ONE
    # count * log10(1-eps), keeping the product in log space to dodge overflow
    magnitude = count.log10 + math.log10(abs(log10_base))
    total = -(10.0**magnitude) if magnitude < 308 else -math.inf
    return LogScalar(1, total * count.sign)


def log10_binomial(n: "LogScalar | float | int", k: int) -> float:
    """log10 of the binomial coefficient C(n, k); n may exceed float range."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return 0.0
    n = LogScalar.coerce(n)
    if n.sign <= 0:
        raise ValueError("n must be positive")
    log_k_fact = math.lgamma(k + 1) / _LN10
    if n.log10 > 15:
        # n >> k: C(n,k) = n^k / k! to double precision
        return k * n.log10 - log_k_fact
    n_f = n.to_float()
    if k > n_f + 1e-6:  # tolerate round-trip error when k == n
        raise ValueError("k exceeds n")
    return (math.lgamma(n_f + 1) - math.lgamma(n_f - k + 1)) / _LN10 - log_k_fact

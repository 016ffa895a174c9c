"""Closed-form rate, error, and cost formulas, evaluated in the log domain."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .inner_codes import CssCodeParams
from .logdomain import ONE, LogScalar, log10_binomial, pow_one_minus

REED_MULLER_OVERHEAD_EXPONENT = 2.46
FIFTEEN_TO_ONE_INPUTS = 15
FIFTEEN_TO_ONE_ERROR_COEFF = 35


class ThresholdError(ValueError):
    """A 15->1 round got an input error of 1 or more: the chain started above threshold."""


@dataclass(frozen=True)
class StageReport:
    """Input/output accounting for one distillation stage, as ``evaluate`` records it.

    ``kind`` is "pre_distillation" (15->1 rounds) or "hadamard_step" (a
    check-schedule round). ``required_input_eps`` is a check-schedule round's
    design target (1/(A n d))^d and None for 15->1 rounds.
    """

    kind: str
    inputs_per_output: LogScalar
    eps_out: LogScalar
    success_prob: LogScalar
    required_input_eps: LogScalar | None = None

    @property
    def effective_rate(self) -> LogScalar:
        return self.success_prob / self.inputs_per_output


def _as_eps(eps: LogScalar | float) -> LogScalar:
    eps = LogScalar.coerce(eps)
    if eps.sign < 0 or eps >= ONE:
        raise ValueError("error rate must satisfy 0 <= eps < 1")
    return eps


def fifteen_to_one(eps_in: LogScalar | float) -> StageReport:
    """One round of 15->1 distillation: eps -> 35 eps^3, 15 inputs per output."""
    eps_in = _as_eps(eps_in)
    if eps_in.is_zero():
        raise ValueError("eps_in must be positive")
    eps_out = LogScalar.coerce(FIFTEEN_TO_ONE_ERROR_COEFF) * eps_in**3
    success = pow_one_minus(eps_in, FIFTEEN_TO_ONE_INPUTS)
    inputs = LogScalar.coerce(FIFTEEN_TO_ONE_INPUTS)
    return StageReport("pre_distillation", inputs, eps_out, success)


def predistill_chain(rounds: int, eps0: LogScalar | float) -> StageReport:
    """rounds iterations of 15->1, via the closed form 35^((3^p-1)/2) eps0^(3^p)."""
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    eps0 = _as_eps(eps0)
    power = 3**rounds
    eps_out = (
        LogScalar.coerce(FIFTEEN_TO_ONE_ERROR_COEFF) ** ((power - 1) / 2.0)
    ) * eps0**power
    success = ONE
    eps = eps0
    for index in range(rounds):
        if not eps < ONE:
            raise ThresholdError(f"15->1 round {index + 1}: input error must be below 1")
        success = success * pow_one_minus(eps, FIFTEEN_TO_ONE_INPUTS)
        eps = LogScalar.coerce(FIFTEEN_TO_ONE_ERROR_COEFF) * eps**3
    inputs = LogScalar.coerce(FIFTEEN_TO_ONE_INPUTS) ** rounds
    return StageReport("pre_distillation", inputs, eps_out, success)


def hadamard_step_counts(params: CssCodeParams, a_n: int, m: int) -> int:
    """Magic states consumed by one check-schedule round: a_n data + 2 per qubit per check."""
    return a_n + 2 * params.n_q * m


def overhead_exponent(params: CssCodeParams) -> float:
    """log(1 + (d-1) n/k) / log d; strictly above 1 whenever n > k, d > 1."""
    if params.d_q <= 1:
        raise ValueError("overhead exponent needs d >= 2")
    return math.log1p((params.d_q - 1) * params.n_q / params.k_q) / math.log(params.d_q)


def required_intermediate_error(params: CssCodeParams, scale: LogScalar | int) -> LogScalar:
    """Intermediate error (1/(A n d))^d that makes the binomial bound vanish."""
    scale = LogScalar.coerce(scale)
    if scale < ONE:
        raise ValueError("scale factor must be >= 1")
    log10_base = scale.log10 + math.log10(params.n_q * params.d_q)
    return LogScalar.from_log10(-params.d_q * log10_base)


def output_error_bound(
    n_prime: LogScalar | int, d: int, eps: LogScalar | float
) -> LogScalar:
    """Union bound C(n', d) eps^d on undetected weight-d fault patterns."""
    eps = _as_eps(eps)
    if eps.is_zero():
        return LogScalar(0, 0.0)
    return LogScalar.from_log10(log10_binomial(n_prime, d)) * eps**d


def predistill_cost(
    eps_target: LogScalar | float,
    gamma_pre: float = REED_MULLER_OVERHEAD_EXPONENT,
    cost_const: float = 1.0,
) -> float:
    """Inputs per intermediate state: C * ln(1/eps)^gamma_pre."""
    eps_target = _as_eps(eps_target)
    if eps_target.is_zero():
        raise ValueError("eps_target must be positive")
    return cost_const * (-eps_target.ln()) ** gamma_pre


def t_exponent(
    params: CssCodeParams,
    scale: LogScalar | int,
    gamma_pre: float = REED_MULLER_OVERHEAD_EXPONENT,
    xi: float = 1.0,
) -> float:
    """Rate-scaling exponent t; approaches 1 from above along growing families.

    All logarithms are natural; the asymptotic o(1) remainder is omitted.
    """
    if xi <= 0:
        raise ValueError("xi must be positive")
    scale = LogScalar.coerce(scale)
    ln_an = scale.ln() + math.log(params.n_q)
    if ln_an <= 0:
        raise ValueError("need A * n > 1")
    ln_and = ln_an + math.log(params.d_q)
    numerator = (
        (gamma_pre + 1.0) * math.log(params.d_q)
        + gamma_pre * math.log(ln_and)
        + math.log(xi)
    )
    return 1.0 + numerator / ln_an


def effective_rate(
    a_n: int,
    n_total: LogScalar | int,
    eps_prime: LogScalar | float,
    n_prime: LogScalar | int,
) -> LogScalar:
    """Post-selected rate (1 - eps')^n' * a_n / n_total."""
    eps_prime = _as_eps(eps_prime)
    success = pow_one_minus(eps_prime, LogScalar.coerce(n_prime))
    return success * LogScalar.coerce(a_n) / LogScalar.coerce(n_total)

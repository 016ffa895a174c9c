"""Closed-form rate, error, and cost formulas, evaluated in the log domain."""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, islice
from typing import Iterator

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
    # a negative float is refused here, before coerce refuses it with a vaguer message
    if eps < 0 or not (eps := LogScalar.coerce(eps)) < ONE:
        raise ValueError("error rate must satisfy 0 <= eps < 1")
    return eps


def _predistill_rounds(eps0: LogScalar | float) -> Iterator[StageReport]:
    """The reports after 0, 1, 2, ... rounds of 15->1, each taking eps to 35 eps^3.

    After p rounds eps_out = 35^((3^p-1)/2) eps0^(3^p). Each round's input is
    checked against threshold and its success probability (1-eps)^15
    accumulated. An eps_out whose log10 falls below float range (from about
    p = 646) is the zero.
    """
    eps, success = _as_eps(eps0), ONE
    for index in count():
        inputs = LogScalar.coerce(FIFTEEN_TO_ONE_INPUTS) ** index
        yield StageReport("pre_distillation", inputs, eps, success)
        if not eps < ONE:
            raise ThresholdError(f"15->1 round {index + 1}: input error must be below 1")
        success = success * pow_one_minus(eps, FIFTEEN_TO_ONE_INPUTS)
        eps = LogScalar.coerce(FIFTEEN_TO_ONE_ERROR_COEFF) * eps**3


def predistill_chain(rounds: int, eps0: LogScalar | float) -> StageReport:
    """The report after ``rounds`` rounds of 15->1, computed round by round."""
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    return next(islice(_predistill_rounds(eps0), rounds, None))


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
    return LogScalar.from_log10(log10_binomial(n_prime, d)) * eps**d


def t_exponent(params: CssCodeParams, scale: LogScalar | int) -> float:
    """Rate-scaling exponent t; approaches 1 from above along growing families.

    Uses the Reed-Muller pre-distillation exponent gamma = 2.46 and xi = 1:
    t = 1 + ((gamma + 1) ln d + gamma ln ln(A n d)) / ln(A n). All logarithms
    are natural; the asymptotic o(1) remainder is omitted.
    """
    scale = LogScalar.coerce(scale)
    ln_an = scale.ln() + math.log(params.n_q)
    if ln_an <= 0:
        raise ValueError("need A * n > 1")
    ln_and = ln_an + math.log(params.d_q)
    gamma = REED_MULLER_OVERHEAD_EXPONENT
    numerator = (gamma + 1.0) * math.log(params.d_q) + gamma * math.log(ln_and)
    return 1.0 + numerator / ln_an

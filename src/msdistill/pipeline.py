"""Protocol evaluation: p rounds of 15->1, then one check-schedule round; and its search."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import InfeasibleError
from .analytics import (
    StageReport,
    hadamard_step_counts,
    output_error_bound,
    predistill_chain,
    required_intermediate_error,
)
from .inner_codes import CssCodeParams
from .logdomain import ONE, LogScalar, pow_one_minus
from .outer_codes import outer_size_for

DEFAULT_INPUT_ERROR = 0.1


@dataclass(frozen=True)
class ProtocolSpec:
    """p rounds of 15->1 from raw error eps0, then one check round on ``inner`` at outer scale A."""

    pre_rounds: int
    inner: CssCodeParams
    scale: int
    eps0: float = DEFAULT_INPUT_ERROR

    def __post_init__(self) -> None:
        if self.pre_rounds < 0:
            raise ValueError("rounds must be >= 0")
        if self.inner.d_q % 2 == 0 or self.inner.d_q < 3:
            raise ValueError("check-schedule stage needs odd distance >= 3")

    @property
    def label(self) -> tuple[int, int]:
        """(pre-distillation rounds, check-schedule rounds)."""
        return (self.pre_rounds, 1)


@dataclass(frozen=True)
class PipelineReport:
    """Totals of a protocol, and the reports of its 15->1 chain and its check round."""

    label: tuple[int, int]
    total_inputs_per_output: LogScalar
    success_prob: LogScalar
    stage_details: tuple[StageReport, StageReport]

    @property
    def eps_out(self) -> LogScalar:
        return self.stage_details[-1].eps_out

    @property
    def effective_rate(self) -> LogScalar:
        return self.success_prob / self.total_inputs_per_output

    def csv_row(self) -> str:
        p, r = self.label
        return (f"({p};{r}),{self.effective_rate.log10:.6f},{self.eps_out.log10:.6f},"
                f"{self.success_prob.log10:.6f}")


def evaluate(spec: ProtocolSpec, *, success_eps: str = "required") -> PipelineReport:
    """Protocol evaluation: the 15->1 chain's report, the check round's, and their totals.

    An eps0 outside [0, 1) is a plain ValueError. A chain that started above
    threshold is an InfeasibleError, its message prefixed "stage 0: " when a
    15->1 round gets an input error of 1 or more and "stage 1: " when the
    chain delivers one to the check round.

    ``success_eps`` selects which intermediate error enters the check round's
    success probability and output bound: "required" (the design target
    (1/(A n d))^d, which reproduces the published finite-size rates) or
    "achieved" (the error the 15->1 chain actually delivers; physically
    faithful, but it collapses the post-selection success probability at
    paper-scale parameters).
    """
    if success_eps not in ("required", "achieved"):
        raise ValueError(f"unknown success_eps convention {success_eps!r}")
    # a negative eps0 is refused here, before coerce refuses it with a vaguer message
    if spec.eps0 < 0 or not (eps := LogScalar.coerce(spec.eps0)) < ONE:
        raise ValueError("eps0 must satisfy 0 <= eps0 < 1")

    try:
        pre = predistill_chain(spec.pre_rounds, eps)
    except InfeasibleError as exc:
        raise InfeasibleError(f"stage 0: {exc}") from exc
    if not pre.eps_out < ONE:
        raise InfeasibleError("stage 1: input error must be below 1")

    a_n, m = outer_size_for(spec.inner, spec.scale)
    n_prime = hadamard_step_counts(spec.inner, a_n, m)
    required = required_intermediate_error(spec.inner, spec.scale)
    eps_used = required if success_eps == "required" else pre.eps_out
    check = StageReport(
        "hadamard_step",
        LogScalar.coerce(n_prime) / LogScalar.coerce(a_n),
        output_error_bound(n_prime, spec.inner.d_q, eps_used),
        pow_one_minus(eps_used, n_prime),
        required,
    )
    # the log10 sums run as (0 + a) + b, the order in which every pinned digit was computed
    return PipelineReport(
        spec.label,
        ONE * pre.inputs_per_output * check.inputs_per_output,
        ONE * pre.success_prob * check.success_prob,
        (pre, check),
    )


def default_scale_rule(params: CssCodeParams) -> int:
    """A = k^d, the scale assumed by the finite-size comparison."""
    return params.k_q**params.d_q


def search_best(
    rate_floor: LogScalar | float,
    inner_candidates: Sequence[CssCodeParams],
    pre_rounds: Iterable[int],
    *,
    eps0: float = DEFAULT_INPUT_ERROR,
    success_eps: str = "required",
) -> ProtocolSpec:
    """Smallest output-error spec whose effective rate stays above the floor.

    Candidates are all (inner code, p) pairs with one check-schedule round at
    the default scale A = k^d after p rounds of 15->1. A candidate whose
    chain crosses threshold (evaluate's InfeasibleError) is skipped, as is
    one below the floor. Ties break deterministically toward smaller n_q, then
    smaller p, independent of enumeration order. Raises InfeasibleError for an
    empty search space and when no candidate is left.
    """
    rate_floor = LogScalar.coerce(rate_floor)
    pre_rounds = sorted(set(pre_rounds))
    if not inner_candidates or not pre_rounds:
        raise InfeasibleError("empty search space")

    best_key: tuple[float, int, int] | None = None
    best_spec: ProtocolSpec | None = None
    crossed: InfeasibleError | None = None
    for params in inner_candidates:
        for p in pre_rounds:
            spec = ProtocolSpec(p, params, default_scale_rule(params), eps0)
            try:
                report = evaluate(spec, success_eps=success_eps)
            except InfeasibleError as exc:
                crossed = exc
                continue
            if not report.effective_rate > rate_floor:
                continue
            key = (report.eps_out.log10, params.n_q, p)
            if best_key is None or key < best_key:
                best_key = key
                best_spec = spec
    if best_spec is None:
        skipped = "" if crossed is None else f"; skipped above threshold ({crossed})"
        raise InfeasibleError(f"no candidate satisfies the rate floor{skipped}")
    return best_spec

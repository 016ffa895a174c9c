"""Composition and evaluation of multi-stage distillation protocols."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .analytics import (
    StageReport,
    ThresholdError,
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
class PreDistillation:
    """p rounds of 15->1 distillation."""

    rounds: int

    def __post_init__(self) -> None:
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")


@dataclass(frozen=True)
class HadamardStep:
    """One check-schedule round on an inner code with outer scale factor A."""

    params: CssCodeParams
    scale: int

    def __post_init__(self) -> None:
        if self.params.d_q % 2 == 0 or self.params.d_q < 3:
            raise ValueError("check-schedule stage needs odd distance >= 3")


Stage = PreDistillation | HadamardStep


@dataclass(frozen=True)
class ProtocolSpec:
    """An ordered list of stages applied to states of initial error eps0."""

    stages: tuple[Stage, ...]
    eps0: float = DEFAULT_INPUT_ERROR

    @property
    def label(self) -> tuple[int, int]:
        """(total pre-distillation rounds, number of check-schedule rounds)."""
        p = sum(s.rounds for s in self.stages if isinstance(s, PreDistillation))
        r = sum(1 for s in self.stages if isinstance(s, HadamardStep))
        return (p, r)


@dataclass(frozen=True)
class PipelineReport:
    label: tuple[int, int]
    eps_trajectory: tuple[LogScalar, ...]
    total_inputs_per_output: LogScalar
    success_prob: LogScalar
    stage_details: tuple[StageReport, ...] = field(repr=False, default=())

    @property
    def eps_out(self) -> LogScalar:
        return self.eps_trajectory[-1]

    @property
    def effective_rate(self) -> LogScalar:
        return self.success_prob / self.total_inputs_per_output

    def csv_row(self) -> str:
        p, r = self.label
        return (f"({p};{r}),{self.effective_rate.log10:.6f},{self.eps_out.log10:.6f},"
                f"{self.success_prob.log10:.6f}")


class StageError(ValueError):
    def __init__(self, index: int, message: str):
        super().__init__(f"stage {index}: {message}")
        self.index = index


class SearchError(ValueError):
    """search_best has nothing to return: an empty search space, or no spec above the floor."""


def evaluate(spec: ProtocolSpec, *, success_eps: str = "required") -> PipelineReport:
    """Thread the error rate through the stages and aggregate cost and success.

    Each stage is recorded as the :class:`StageReport` of its formula. An eps0
    outside [0, 1) is a plain ValueError; a stage whose input error has
    reached 1 (the chain started above threshold) is a StageError.

    ``success_eps`` selects which intermediate error enters a check-schedule
    stage's success probability and output bound: "required" (the design
    target (1/(A n d))^d, which reproduces the published finite-size rates)
    or "achieved" (the error actually delivered by the preceding stages;
    physically faithful, but it collapses the post-selection success
    probability at paper-scale parameters).
    """
    if not spec.stages:
        raise ValueError("protocol must have at least one stage")
    if success_eps not in ("required", "achieved"):
        raise ValueError(f"unknown success_eps convention {success_eps!r}")
    # a negative eps0 is refused here, before coerce refuses it with a vaguer message
    if spec.eps0 < 0 or not (eps := LogScalar.coerce(spec.eps0)) < ONE:
        raise ValueError("eps0 must satisfy 0 <= eps0 < 1")

    trajectory = [eps]
    total_inputs = ONE
    total_success = ONE
    reports: list[StageReport] = []

    for index, stage in enumerate(spec.stages):
        if not eps < ONE:
            raise StageError(index, "input error must be below 1")
        if isinstance(stage, PreDistillation):
            try:
                report = predistill_chain(stage.rounds, eps)
            except ThresholdError as exc:
                raise StageError(index, str(exc)) from exc
        elif isinstance(stage, HadamardStep):
            a_n, m = outer_size_for(stage.params, stage.scale)
            n_prime = hadamard_step_counts(stage.params, a_n, m)
            required = required_intermediate_error(stage.params, stage.scale)
            eps_used = required if success_eps == "required" else eps
            report = StageReport(
                "hadamard_step",
                LogScalar.coerce(n_prime) / LogScalar.coerce(a_n),
                output_error_bound(n_prime, stage.params.d_q, eps_used),
                pow_one_minus(eps_used, n_prime),
                required,
            )
        else:  # pragma: no cover - dataclass union is closed
            raise StageError(index, f"unknown stage type {type(stage).__name__}")

        eps = report.eps_out
        reports.append(report)
        trajectory.append(eps)
        total_inputs = total_inputs * report.inputs_per_output
        total_success = total_success * report.success_prob

    return PipelineReport(
        spec.label, tuple(trajectory), total_inputs, total_success, tuple(reports)
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
    chain crosses threshold (a StageError) is skipped, as is one below the
    floor. Ties break deterministically toward smaller n_q, then smaller p,
    independent of enumeration order. Raises SearchError when no candidate is
    left.
    """
    rate_floor = LogScalar.coerce(rate_floor)
    pre_rounds = sorted(set(pre_rounds))
    if not inner_candidates or not pre_rounds:
        raise SearchError("empty search space")

    best_key: tuple[float, int, int] | None = None
    best_spec: ProtocolSpec | None = None
    crossed: StageError | None = None
    for params in inner_candidates:
        for p in pre_rounds:
            stages: tuple[Stage, ...] = (
                PreDistillation(p),
                HadamardStep(params, default_scale_rule(params)),
            )
            spec = ProtocolSpec(stages, eps0)
            try:
                report = evaluate(spec, success_eps=success_eps)
            except StageError as exc:
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
        raise SearchError(f"no candidate satisfies the rate floor{skipped}")
    return best_spec

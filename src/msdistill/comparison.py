"""Constant-overhead algebraic-geometry baseline and the comparison dataset."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Sequence

from . import InfeasibleError
from .analytics import FIFTEEN_TO_ONE_INPUTS, _predistill_rounds
from .inner_codes import binary_entropy
from .logdomain import LogScalar
from .pipeline import DEFAULT_INPUT_ERROR, ProtocolSpec, evaluate

CCZ_TO_TARGET_CONVERSION = 70  # |CCZ> states per distillation-code input state
T_PER_CCZ = 4
PUBLISHED_MIN_BLOCK_LENGTH = 932093  # the paper's stated N for the smallest instance
MAX_CATALYST_ROUNDS = 30


@dataclass(frozen=True)
class QagParams:
    """Parameters of one instance of the constant-overhead qudit code family."""

    n_low: int
    n_high: int
    k: int
    decode_radius: int

    def __post_init__(self) -> None:
        if not (self.n_low <= self.n_high and self.k < self.n_low):
            raise ValueError("inconsistent block-length bracket")
        if self.decode_radius >= self.k:
            raise ValueError("decoding radius must be below k")


def qag_params(index: int) -> QagParams:
    """Exact integer floors of the published parameter formulas (odd/even families)."""
    if index < 3:
        raise ValueError("family starts at index 3")
    if index % 2:
        base = 33 * 32 ** (index - 1) - 34 * 32 ** ((index - 1) // 2) + 1
    else:
        base = 33 * 32 ** (index - 1) - 561 * 32 ** (index // 2 - 1) + 1
    n_low = 114 * base // 4 - 3
    n_high = 118 * base // 4 - 1
    k = 5 * base // 4
    radius = base // 8
    return QagParams(n_low, n_high, k, radius)


def qag_threshold() -> float:
    """Input-error threshold lower bound 1/(C * 2^((N/(r+1)) h((r+1)/N))).

    C = 70 |CCZ> states per input state, and (r+1)/N is the simplification
    3/76 that the parameter formulas imply.
    """
    ratio = 3.0 / 76.0
    exponent = binary_entropy(ratio) / ratio
    return 1.0 / (CCZ_TO_TARGET_CONVERSION * 2.0**exponent)


@dataclass(frozen=True)
class CatalystSchedule:
    rounds: int
    eps_pre: float
    ratio_to_threshold: float


def qag_catalyst_rounds(eps_in: float, threshold: float) -> CatalystSchedule:
    """Fewest 15->1 rounds bringing eps_in below the threshold, plus the margin ratio."""
    if not 0 < eps_in < 1:
        raise ValueError("eps_in must be in (0,1)")
    # one chain passes through every count; zip stops before a round past the cap
    for rounds, report in zip(range(MAX_CATALYST_ROUNDS + 1), _predistill_rounds(eps_in)):
        eps = report.eps_out.to_float()
        if eps <= threshold:
            return CatalystSchedule(rounds, eps, eps / threshold)
    raise InfeasibleError(f"threshold not reached within {MAX_CATALYST_ROUNDS} rounds")


def qag_rate(params: QagParams, catalyst_rounds: int) -> LogScalar:
    """Distillation rate (2K+1) / (15^3 * 280 N + 15^l_c), N the paper's stated block length.

    The formulas derive ``params.n_low``, four below the published N; the
    published value keeps the headline number reproducible.
    """
    if catalyst_rounds < 0:
        raise ValueError("catalyst rounds must be >= 0")
    numerator = 2 * params.k + 1
    denominator = (
        FIFTEEN_TO_ONE_INPUTS**3 * T_PER_CCZ * CCZ_TO_TARGET_CONVERSION * PUBLISHED_MIN_BLOCK_LENGTH
        + FIFTEEN_TO_ONE_INPUTS**catalyst_rounds
    )
    return LogScalar.coerce(numerator) / LogScalar.coerce(denominator)


def qag_baseline_rate(
    eps_in: float = DEFAULT_INPUT_ERROR,
) -> tuple[LogScalar, QagParams, CatalystSchedule]:
    """Rate of the smallest family instance at the standard initial error."""
    params = qag_params(3)
    schedule = qag_catalyst_rounds(eps_in, qag_threshold())
    return qag_rate(params, schedule.rounds), params, schedule


@dataclass(frozen=True)
class ComparisonRow:
    series: str
    label: str
    neg_log10_eps: float
    log10_rate: float

    def csv_row(self) -> str:
        return f"{self.series},{self.label},{self.neg_log10_eps:.6f},{self.log10_rate:.6f}"


CSV_HEADER = "series,label,neg_log10_eps,log10_rate"


def figure2_dataset(
    *,
    pre_rounds_max: int = 6,
    pipeline_specs: Sequence[ProtocolSpec] = (),
    eps_in: float = DEFAULT_INPUT_ERROR,
    success_eps: str = "required",
) -> tuple[list[ComparisonRow], dict[str, object]]:
    """Assemble the three comparison series: repeated 15->1, this protocol, baseline.

    Returns the rows plus a metadata record (convention flags, both block
    lengths, the catalyst schedule). A negative ``pre_rounds_max`` is a ValueError.
    """
    if pre_rounds_max < 0:
        raise ValueError("rounds must be >= 0")
    # one chain passes through every p; zip stops before a round past pre_rounds_max
    chain = islice(_predistill_rounds(eps_in), 1, None)
    series = [("repeated_15to1", str(p), r) for p, r in zip(range(1, pre_rounds_max + 1), chain)]
    for spec in pipeline_specs:
        report = evaluate(spec, success_eps=success_eps)
        p, r = report.label
        series.append(("check_schedule", f"({p};{r})", report))
    rows = [
        ComparisonRow(name, label, -report.eps_out.log10, report.effective_rate.log10)
        for name, label, report in series
    ]

    rate, params, schedule = qag_baseline_rate(eps_in)
    abscissae = [row.neg_log10_eps for row in rows] or [0.0]
    for x in sorted(set(abscissae)):
        rows.append(ComparisonRow("constant_overhead", "floor", x, rate.log10))

    metadata = {
        "eps_in": eps_in,
        "success_eps": success_eps,
        "baseline_block_length_published": PUBLISHED_MIN_BLOCK_LENGTH,
        "baseline_block_length_derived": params.n_low,
        "baseline_catalyst_rounds": schedule.rounds,
        "baseline_log10_rate": round(rate.log10, 6),
    }
    return rows, metadata

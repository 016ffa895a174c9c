"""Weakly self-dual CSS inner codes: parameters, validation, and GV families."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .gf2 import BinMatrix, is_self_orthogonal, low_weight_syndromes, rank2, row_space


@dataclass(frozen=True)
class CssCodeParams:
    """[[n, k, d]] parameters of the inner quantum code.

    Any d >= 1 is accepted: ``pipeline.ProtocolSpec`` and
    ``outer_codes.outer_size_for`` refuse an even d where a check round needs an odd one.
    """

    n_q: int
    k_q: int
    d_q: int

    def __post_init__(self) -> None:
        if not (1 <= self.k_q < self.n_q):
            raise ValueError(f"need 1 <= k < n, got [[{self.n_q},{self.k_q},{self.d_q}]]")
        if self.d_q < 1:
            raise ValueError("distance must be >= 1")

    def __str__(self) -> str:
        return f"[[{self.n_q},{self.k_q},{self.d_q}]]"


@dataclass(frozen=True)
class WeaklySelfDualCode:
    """A CSS code whose X and Z stabilizers share one check matrix."""

    params: CssCodeParams
    check: BinMatrix


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x), with h(0) = h(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy needs x in [0,1], got {x}")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def ln_rule_distance(n_q: int) -> int:
    """Largest odd integer <= floor(ln n); the distance schedule for GV families."""
    d = math.floor(math.log(n_q))
    return d if d % 2 else d - 1


def gv_params(
    n_q: int,
    d: int | None = None,
    *,
    entropy_variant: str = "single",
) -> CssCodeParams:
    """Parameters of a GV-existence weakly self-dual code.

    ``d=None`` applies the natural-log distance rule. ``entropy_variant`` is
    "single" (k = floor(n(1-h(d/n))), the default used by every headline
    number) or "double" (k = floor(n(1-2h(d/n)))).
    """
    if n_q < 4:
        raise ValueError("need n >= 4")
    if d is None:
        d = ln_rule_distance(n_q)
    if d < 1:
        raise ValueError(f"distance rule gives d={d} at n={n_q}")
    if 2 * d >= n_q:
        raise ValueError(f"need d < n/2, got d={d}, n={n_q}")
    h = binary_entropy(d / n_q)
    factor = {"single": 1.0, "double": 2.0}[entropy_variant]
    k = math.floor(n_q * (1.0 - factor * h))
    if k <= 0:
        raise ValueError(f"parameters give k={k} <= 0")
    return CssCodeParams(n_q, k, d)


def distance_family(n_max: int) -> list[CssCodeParams]:
    """Smallest n per odd distance under the ln rule, for n <= n_max.

    This is the candidate family the finite-size search sweeps: for each odd d
    the cheapest code is the first n with floor(ln n) = d, with the GV
    parameters of :func:`gv_params`' default (single-entropy) variant.
    """
    out = []
    d = 3
    while True:
        n = math.ceil(math.exp(d))
        while math.floor(math.log(n)) < d:
            n += 1
        if n > n_max:
            break
        out.append(gv_params(n, d))
        d += 2
    return out


def min_distance_css(check: BinMatrix) -> int:
    """Exhaustive CSS distance: lightest zero-syndrome vector outside the row space.

    Takes supports by weight from :func:`gf2.low_weight_syndromes` over the check
    rows, padded to whole words, stacked on the row space's parity checks: a
    support with zero check bits and a nonzero parity-check bit is a logical.
    The enumerator refuses to start a weight that would take the support count
    past EXHAUSTIVE_PATTERN_GUARD; returns cols+1 when no logical operator
    exists (k = 0 codes).
    """
    n = check.cols
    words = (check.rows + 63) // 64
    rows = check.row_bits + (0,) * (64 * words - check.rows) + row_space(check).row_bits
    for supports, syndromes in low_weight_syndromes(BinMatrix(len(rows), n, rows), n):
        logical = ~syndromes[:, :words].any(axis=1) & syndromes[:, words:].any(axis=1)
        if logical.any():
            return supports.shape[1]
    return n + 1


@dataclass(frozen=True)
class ValidationReport:
    """Pass/fail entries from validate_code."""

    self_orthogonal: bool
    k_consistent: bool
    distance_ok: bool | None  # None when the exhaustive check is out of range
    measured_distance: int | None = None
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def all_passed(self) -> bool:
        return self.self_orthogonal and self.k_consistent and self.distance_ok is not False


def validate_code(code: WeaklySelfDualCode) -> ValidationReport:
    """Check self-orthogonality, k = n - 2 rank, and (small codes) the distance claim."""
    check = code.check
    params = code.params
    notes: list[str] = []
    ortho = is_self_orthogonal(check)
    k_ok = params.k_q == params.n_q - 2 * rank2(check)
    if check.cols != params.n_q:
        k_ok = False
        notes.append(f"matrix width {check.cols} != n_q {params.n_q}")
    try:
        measured: int | None = min_distance_css(check)
    except ValueError as exc:
        measured = None
        notes.append(f"distance unverified ({exc})")
    dist_ok = None if measured is None else measured >= params.d_q
    return ValidationReport(ortho, k_ok, dist_ok, measured, tuple(notes))


# Golden codes shipped with the repo, in the matrix literal format.
_STEANE_TEXT = """
0001111
0110011
1010101
"""

# 15-qubit code in weakly self-dual form: 7x15 self-orthogonal matrix with
# k = 15 - 2*7 = 1 and exhaustive distance 3.
_FIFTEEN_TEXT = """
101010101010101
011001100110011
000111100001111
000000011111111
011110000000000
101101000000000
110100100000000
"""

STEANE = WeaklySelfDualCode(CssCodeParams(7, 1, 3), BinMatrix.from_text(_STEANE_TEXT))
RM15 = WeaklySelfDualCode(CssCodeParams(15, 1, 3), BinMatrix.from_text(_FIFTEEN_TEXT))

CODE_LIBRARY: dict[str, WeaklySelfDualCode] = {
    "steane": STEANE,
    "rm15": RM15,
}


def load_named_code(name: str) -> WeaklySelfDualCode:
    """The library code called ``name``, in any case; an unknown name is a ValueError."""
    if name.lower() not in CODE_LIBRARY:
        raise ValueError(f"unknown code {name!r}; known codes: {sorted(CODE_LIBRARY)}")
    return CODE_LIBRARY[name.lower()]

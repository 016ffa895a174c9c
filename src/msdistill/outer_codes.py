"""Outer check schedules: biregular Tanner graphs, girth, and sensitivity."""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import InfeasibleError
from .gf2 import BinMatrix, exhaustive_guard, low_weight_syndromes
from .inner_codes import CssCodeParams

INFINITE_GIRTH = math.inf
# PEG hands a mask of at least this many checks to numpy instead of a bit loop
_NUMPY_FROM = 24


@dataclass(frozen=True)
class OuterCode:
    """m x a_n check schedule with exact row weight w and column weight s."""

    matrix: BinMatrix
    check_degree: int  # w, row weight
    bit_degree: int  # s, column weight

    @property
    def num_checks(self) -> int:
        return self.matrix.rows

    @property
    def num_bits(self) -> int:
        return self.matrix.cols

    def degree_audit(self) -> bool:
        m = self.matrix
        rows_ok = all(r.bit_count() == self.check_degree for r in m.row_bits)
        cols_ok = all(c.bit_count() == self.bit_degree for c in m.column_bits())
        return rows_ok and cols_ok

    @cached_property
    def tanner_girth(self) -> float:
        """:func:`girth` of the schedule, computed once per code."""
        return girth(self.matrix)

    def to_text(self) -> str:
        return f"{self.check_degree} {self.bit_degree} {self.tanner_girth}\n{self.matrix.to_text()}"

    @classmethod
    def from_text(cls, text: str) -> "OuterCode":
        """Read :meth:`to_text`'s ``w s girth`` header and rows, or bare 0/1 rows.

        The header's girth is never read. Bare rows declare their largest row
        and column weights, so :meth:`degree_audit` holds iff they are biregular.
        """
        header, _, rows = text.lstrip().partition("\n")
        if len(header.split()) > 1:  # a row has no spaces
            w, s, _ = header.split()
            return cls(BinMatrix.from_text(rows), int(w), int(s))
        matrix = BinMatrix.from_text(text)
        w = max((r.bit_count() for r in matrix.row_bits), default=0)
        s = max((c.bit_count() for c in matrix.column_bits()), default=0)
        return cls(matrix, w, s)


@dataclass(frozen=True)
class SensitivityWitness:
    """A low-weight pattern violating fewer checks than required."""

    pattern_bits: int
    weight: int
    violated_checks: int


def girth(code: OuterCode | BinMatrix) -> float:
    """Shortest cycle length of the Tanner graph; inf for forests.

    Every cycle holds a check, so a level-synchronous BFS runs from each check
    over packed masks (check -> bits, bit -> checks). The first level L at
    which an unseen vertex is reached from two frontier vertices closes a
    cycle of length at most 2L, and a check on a shortest cycle meets it.
    Each start is then retired, counted as seen by later starts: every cycle
    through it has been searched, and a shortest cycle is still found from
    its first check. An :class:`OuterCode` answers from its cached
    :attr:`OuterCode.tanner_girth`.
    """
    if isinstance(code, OuterCode):
        return code.tanner_girth
    neighbors = (code.row_bits, code.column_bits())  # by side: checks, bits
    best = INFINITE_GIRTH
    retired = 0
    for start in range(code.rows):
        seen, frontier, side, level = [retired | 1 << start, 0], 1 << start, 0, 0
        retired |= frontier
        while frontier and 2 * level + 2 < best:
            level += 1
            once = twice = 0
            while frontier:
                low = frontier & -frontier
                mask = neighbors[side][low.bit_length() - 1]
                twice |= once & mask
                once |= mask
                frontier ^= low
            side ^= 1
            if twice & ~seen[side]:
                best = 2 * level
            frontier = once & ~seen[side]
            seen[side] |= frontier
    return best


def _replay_stream(rng: random.Random) -> np.random.Generator:
    """A numpy generator whose ``random()`` continues ``rng.random()`` bit for bit.

    Both are MT19937 turned into 53-bit doubles the same way, so loading the
    Python state into numpy replays the stream in bulk.
    """
    _, state, _ = rng.getstate()
    bit_generator = np.random.MT19937()
    bit_generator.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(state[:-1], dtype=np.uint32), "pos": state[-1]},
    }
    return np.random.Generator(bit_generator)


def _peg_attempt(a_n: int, m: int, w: int, s: int, rng: random.Random) -> BinMatrix | None:
    """One progressive-edge-growth pass: the matrix, or None if it gets stuck.

    Bit by bit, each of its s edges goes to an open candidate check (degree
    < w, not yet adjacent) chosen on Python-int masks of checks:

    - **Component.** A union-find keeps one mask per connected component of
      the check graph (checks sharing a bit). If the bit's component misses
      a candidate (always so on its first edge), the pool is the candidates
      outside it, the unreached ones.
    - **BFS.** Otherwise a BFS from the bit's checks, check to check, runs
      until at most one candidate is unreached. The pool is that one, or the
      candidates of the level that reached the last of them: the farthest.
      When the unreached candidates are fewer than the level's checks, they
      are tested against the level first, and the BFS ends there if the next
      level would leave at most one of them.
    - **Degree class.** One mask per degree gives the pool's lowest-degree
      checks, the ties, in one AND per degree.
    - **Draw.** Every candidate consumes one ``rng.random()`` draw per edge,
      in ascending check order, replayed through numpy's MT19937
      (:func:`_replay_stream`). The tie with the lowest draw, then the
      lowest index, wins; only tied draws are read, and numpy ranks only
      large tie sets.
    """
    draws = _replay_stream(rng)
    drawn = np.empty(m)
    n_bytes = (m + 7) // 8

    def members(mask: int) -> np.ndarray:
        raw = np.frombuffer(mask.to_bytes(n_bytes, "little"), dtype=np.uint8)
        return np.unpackbits(raw, count=m, bitorder="little").view(bool)

    def find(c: int) -> int:
        while root[c] != c:
            root[c] = c = root[root[c]]
        return c

    def farthest(sources: int, candidates: int) -> int:
        # BFS check to check; the sources' component holds every candidate
        reached = level = sources
        unreached = candidates
        while True:
            size = level.bit_count()
            if unreached.bit_count() < size:
                # test the unreached candidates alone: does the next level
                # leave at most one of them?
                rest, far = unreached, 0
                while rest:
                    low = rest & -rest
                    if not two_step[low.bit_length() - 1] & level:
                        if far:
                            break
                        far = low
                    rest ^= low
                else:
                    return far or unreached
            step = 0
            if size < _NUMPY_FROM:
                while level:
                    low = level & -level
                    step |= two_step[low.bit_length() - 1]
                    level ^= low
            else:
                for c in members(level).nonzero()[0].tolist():
                    step |= two_step[c]
            level = step & ~reached
            reached |= level
            unreached = candidates & ~reached
            if not unreached & (unreached - 1):
                return unreached or candidates & level

    check_bits = [0] * m
    two_step = [0] * m  # check -> the checks that share a bit with it
    by_degree = [(1 << m) - 1] + [0] * (w - 1)  # degree -> its open checks
    root = list(range(m))
    component = [1 << c for c in range(m)]  # union-find root -> its component
    open_checks = (1 << m) - 1
    for bit in range(a_n):
        placed: list[int] = []
        mine = 0
        for _ in range(s):
            candidates = open_checks & ~mine
            if not candidates:
                return None
            pool = candidates
            if placed:
                home = find(placed[0])
                pool &= ~component[home]
                if not pool:
                    pool = farthest(mine, candidates)
            for same_degree in by_degree:
                ties = pool & same_degree
                if ties:
                    break
            r = draws.random(out=drawn[: candidates.bit_count()])
            if not ties & (ties - 1):
                chosen = ties.bit_length() - 1
            elif ties.bit_count() < _NUMPY_FROM:
                # a check's draw sits at its rank among the candidates
                best = 2.0
                while ties:
                    low = ties & -ties
                    draw = r.item((candidates & (low - 1)).bit_count())
                    if draw < best:
                        best, chosen = draw, low.bit_length() - 1
                    ties ^= low
            else:
                cand = members(candidates).nonzero()[0]
                chosen = int(cand[np.where(members(ties)[cand], r, 2.0).argmin()])
            chosen_mask = 1 << chosen
            if placed:
                other = find(chosen)
                if other != home:
                    root[other] = home
                    component[home] |= component[other]
            for c in placed:
                two_step[c] |= chosen_mask
            placed.append(chosen)
            mine |= chosen_mask
            two_step[chosen] |= mine
            check_bits[chosen] |= 1 << bit
            d = check_bits[chosen].bit_count()
            by_degree[d - 1] ^= chosen_mask
            if d == w:
                open_checks ^= chosen_mask
            else:
                by_degree[d] |= chosen_mask
    return BinMatrix(m, a_n, tuple(check_bits))


def build_biregular(
    a_n: int,
    w: int,
    s: int,
    girth_target: int,
    seed: int,
    *,
    max_attempts: int = 40,
) -> OuterCode:
    """Build a (w, s)-biregular outer code with Tanner girth >= girth_target.

    Progressive edge growth (Hu, Eleftheriou & Arnold 2005) with seeded
    tie-breaking. Attempt ``a`` draws from ``random.Random(seed * 1_000_003 +
    a)``, replayed through numpy's MT19937, one draw per open candidate check
    per edge, so a fixed seed always builds the same code. A finished attempt
    gives each bit s distinct checks and no check over w edges, so its a_n * s
    = m * w edges fill every check to exactly w: it needs no degree audit and
    is judged by the :attr:`OuterCode.tanner_girth` it keeps. Raises
    InfeasibleError before any attempt for a shape no simple graph has (w
    not dividing a_n * s, or w > a_n), and with the best girth seen in its
    message when the retry budget runs out; a_n or a degree below 1 and the
    other bad arguments raise ValueError first.
    """
    if a_n < 1:
        raise ValueError("a_n must be >= 1")
    if w < 1 or s < 1:
        raise ValueError("degrees must be >= 1")
    if girth_target < 4 or girth_target % 2:
        raise ValueError("girth target must be even and >= 4")
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    if (a_n * s) % w != 0:
        raise InfeasibleError(f"a_n*s = {a_n * s} not divisible by w = {w}")
    if w > a_n:
        raise InfeasibleError(
            f"no ({w},{s})-biregular graph exists for a_n={a_n}: "
            f"a check of degree w = {w} needs w <= a_n distinct bits"
        )
    m = a_n * s // w

    best: float | None = None
    for attempt in range(max_attempts):
        matrix = _peg_attempt(a_n, m, w, s, random.Random(seed * 1_000_003 + attempt))
        if matrix is None:
            continue
        code = OuterCode(matrix, w, s)
        if code.tanner_girth >= girth_target:
            return code
        best = max(best or 0, code.tanner_girth)  # a Tanner girth is >= 4
    raise InfeasibleError(
        f"no ({w},{s})-biregular graph with girth >= {girth_target} found "
        f"for a_n={a_n} within {max_attempts} attempts (best girth: {best})"
    )


def _girth_certifies(code: OuterCode | BinMatrix, d_tilde: int, s_req: int) -> bool:
    """True if column weights and Tanner girth prove (d_tilde, s_req)-sensitivity.

    Take a pattern of w <= d_tilde bits and the checks it hits at least
    twice. If girth > 2 * d_tilde, a cycle through them would need more than
    w bits, so they span a forest and take at most 2(w - 1) of the pattern's
    >= w * s_min edges. Every other edge meets a check hit once, which is
    violated: at least w(s_min - 2) + 2 of them, whose least over 1 <= w <=
    d_tilde is min(s_min, d_tilde(s_min - 2) + 2) (Tanner 1981; Sipser &
    Spielman 1996). The degree bound is checked first; girth only if it
    reaches s_req, and an :class:`OuterCode` gives its cached girth.
    """
    matrix = code.matrix if isinstance(code, OuterCode) else code
    s_min = min((c.bit_count() for c in matrix.column_bits()), default=0)
    if min(s_min, d_tilde * (s_min - 2) + 2) < s_req:
        return False
    return girth(code) > 2 * d_tilde


def check_sensitivity(
    code: OuterCode | BinMatrix, d_tilde: int, s_req: int
) -> tuple[bool, SensitivityWitness | None]:
    """Verify that every nonzero pattern of weight <= d_tilde violates >= s_req checks.

    A True verdict is a proof either way it is reached. The girth bound
    (:func:`_girth_certifies`: column weight, and Tanner girth > 2 * d_tilde,
    an :class:`OuterCode` answering from its cached girth) is tried first. If
    it does not decide, every pattern is enumerated through
    :func:`gf2.low_weight_syndromes`, so a False verdict always comes from
    enumeration; the witness is the first failing pattern, taking weights in
    ascending order and the supports of one weight in lexicographic order.
    Only this path is refused up front, through :func:`gf2.exhaustive_guard`,
    when the patterns up to weight d_tilde pass the guard. A negative bound
    is refused, since it would be certified vacuously.
    """
    if d_tilde < 0 or s_req < 0:
        raise ValueError("d_tilde and s_req must be >= 0")
    if _girth_certifies(code, d_tilde, s_req):
        return True, None
    matrix = code.matrix if isinstance(code, OuterCode) else code
    exhaustive_guard(matrix.cols, d_tilde)
    for supports, syndromes in low_weight_syndromes(matrix, d_tilde):
        violated = np.bitwise_count(syndromes).sum(axis=1, dtype=np.int64)
        failing = np.flatnonzero(violated < s_req)
        if failing.size:
            row = failing[0]
            pattern = sum(1 << int(j) for j in supports[row])
            return False, SensitivityWitness(pattern, supports.shape[1], int(violated[row]))
    return True, None


def outer_size_for(params: CssCodeParams, scale: int) -> tuple[int, int]:
    """Outer-code dimensions (a_n, m) for an inner code and scale factor A.

    a_n = A*k and m = A*(d-1)/2, so that m / ((d-1)/2) = a_n / k exactly.
    """
    if params.d_q % 2 == 0 or params.d_q < 3:
        raise ValueError("inner distance must be odd and >= 3")
    if scale < 1:
        raise ValueError("scale factor must be >= 1")
    a_n = scale * params.k_q
    m = scale * (params.d_q - 1) // 2
    return a_n, m

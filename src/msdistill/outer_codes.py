"""Outer check schedules: biregular Tanner graphs, girth, and sensitivity."""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gf2 import BinMatrix, exhaustive_guard, low_weight_syndromes
from .inner_codes import CssCodeParams

INFINITE_GIRTH = math.inf


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
        g = self.tanner_girth
        g_str = "inf" if g == INFINITE_GIRTH else str(g)
        return f"{self.check_degree} {self.bit_degree} {g_str}\n{self.matrix.to_text()}"

    @classmethod
    def from_text(cls, text: str) -> "OuterCode":
        header, _, body = text.partition("\n")
        w, s, _ = header.split()
        return cls(BinMatrix.from_text(body), int(w), int(s))


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
    """
    matrix = code.matrix if isinstance(code, OuterCode) else code
    neighbors = (matrix.row_bits, matrix.column_bits())  # by side: checks, bits
    best = INFINITE_GIRTH
    for start in range(matrix.rows):
        seen, frontier, side, level = [1 << start, 0], 1 << start, 0, 0
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


class ConstructionError(RuntimeError):
    def __init__(self, message: str, best_girth: float | None = None):
        super().__init__(message)
        self.best_girth = best_girth


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


def _peg_attempt(
    a_n: int, m: int, w: int, s: int, rng: random.Random
) -> tuple[BinMatrix, float] | None:
    """One progressive-edge-growth pass: (matrix, Tanner girth), or None if it gets stuck.

    Bit by bit, each of its s edges goes to the open check (degree < w, not
    yet adjacent) farthest from the bit in the current graph, unreached checks
    first, then the lowest degree, then the lowest draw, then the lowest
    index. Every open candidate consumes one ``rng.random()`` draw per edge,
    in ascending check order; the draws are replayed through numpy's MT19937
    (:func:`_replay_stream`). The girth is derived from PEG itself: an edge
    to a check at distance d closes a shortest new cycle of length d + 1, so
    the girth is the minimum of that over edges (inf if no edge closes one).
    """
    draws = _replay_stream(rng)
    n_bytes = (m + 7) // 8

    def members(mask: int) -> np.ndarray:
        raw = np.frombuffer(mask.to_bytes(n_bytes, "little"), dtype=np.uint8)
        return np.unpackbits(raw, count=m, bitorder="little").view(bool)

    # Python-int bitmasks: bit -> its checks, check -> its bits, and check ->
    # the checks that share a bit with it, so the BFS steps check to check
    bit_checks = [0] * a_n
    check_bits = [0] * m
    two_step = [0] * m
    degree = np.zeros(m, dtype=np.int64)
    open_checks = (1 << m) - 1
    tanner_girth = INFINITE_GIRTH
    for bit in range(a_n):
        placed: list[int] = []
        for _ in range(s):
            candidates = open_checks & ~bit_checks[bit]
            if not candidates:
                return None
            # BFS by check distance 1, 3, 5, ..., stopping at the level that
            # reaches the last candidate or when nothing new is reached
            reached = level = bit_checks[bit]
            dist = 1
            while candidates & ~reached:
                step = 0
                for c in members(level).nonzero()[0].tolist():
                    step |= two_step[c]
                level = step & ~reached
                if not level:
                    level, dist = candidates & ~reached, INFINITE_GIRTH
                    break
                reached |= level
                dist += 2
            cand = members(candidates).nonzero()[0]
            r = draws.random(cand.size)
            key = degree[cand] + w * ~members(level)[cand]
            chosen = int(cand[np.where(key == key.min(), r, 2.0).argmin()])
            tanner_girth = min(tanner_girth, dist + 1)
            chosen_mask = 1 << chosen
            bit_checks[bit] |= chosen_mask
            check_bits[chosen] |= 1 << bit
            two_step[chosen] |= bit_checks[bit]
            for c in placed:
                two_step[c] |= chosen_mask
            placed.append(chosen)
            degree[chosen] += 1
            if degree[chosen] == w:
                open_checks &= ~chosen_mask
    return BinMatrix(m, a_n, tuple(check_bits)), tanner_girth


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
    per edge, so a fixed seed always builds the same code. Each attempt runs
    to the end; its girth is the one PEG derives (see :func:`_peg_attempt`).
    Raises ConstructionError (carrying the best girth seen) if the retry
    budget runs out.
    """
    if w < 1 or s < 1:
        raise ValueError("degrees must be >= 1")
    if (a_n * s) % w != 0:
        raise ValueError(f"a_n*s = {a_n * s} not divisible by w = {w}")
    if girth_target < 4 or girth_target % 2:
        raise ValueError("girth target must be even and >= 4")
    m = a_n * s // w

    best: float | None = None
    for attempt in range(max_attempts):
        built = _peg_attempt(a_n, m, w, s, random.Random(seed * 1_000_003 + attempt))
        if built is None:
            continue
        matrix, g = built
        code = OuterCode(matrix, w, s)
        if not code.degree_audit():
            continue
        if best is None or g > best:
            best = g
        if g >= girth_target:
            return code
    raise ConstructionError(
        f"no ({w},{s})-biregular graph with girth >= {girth_target} found "
        f"for a_n={a_n} within {max_attempts} attempts (best girth: {best})",
        best_girth=best,
    )


def check_sensitivity(
    matrix: BinMatrix, d_tilde: int, s_req: int
) -> tuple[bool, SensitivityWitness | None]:
    """Verify that every nonzero pattern of weight <= d_tilde violates >= s_req checks.

    Enumerates every pattern through :func:`gf2.low_weight_syndromes`, so a
    True verdict is a proof. The witness is the first failing pattern, taking
    weights in ascending order and the supports of one weight in lexicographic
    order. Refuses up front, through :func:`gf2.exhaustive_guard`, when the
    patterns up to weight d_tilde pass the guard.
    """
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

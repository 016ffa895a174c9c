"""Outer check schedules: biregular Tanner graphs, girth, and sensitivity."""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .gf2 import BinMatrix, low_weight_syndromes
from .inner_codes import CssCodeParams

INFINITE_GIRTH = math.inf
EXHAUSTIVE_PATTERN_GUARD = 10**7


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
        rows_ok = all(m.row_weight(i) == self.check_degree for i in range(m.rows))
        cols_ok = all(c.bit_count() == self.bit_degree for c in m.column_bits())
        return rows_ok and cols_ok

    def to_text(self) -> str:
        g = girth(self)
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


def _adjacency(matrix: BinMatrix) -> tuple[list[list[int]], list[list[int]]]:
    bit_nbrs: list[list[int]] = [[] for _ in range(matrix.cols)]
    check_nbrs: list[list[int]] = [[] for _ in range(matrix.rows)]
    for j, row in enumerate(matrix.row_bits):
        while row:
            low = row & -row
            i = low.bit_length() - 1
            bit_nbrs[i].append(j)
            check_nbrs[j].append(i)
            row ^= low
    return bit_nbrs, check_nbrs


def girth(code: OuterCode | BinMatrix) -> float:
    """Shortest cycle length of the Tanner graph; inf for forests."""
    matrix = code.matrix if isinstance(code, OuterCode) else code
    bit_nbrs, check_nbrs = _adjacency(matrix)
    n_bits, n_checks = matrix.cols, matrix.rows
    total = n_bits + n_checks

    def neighbors(v: int) -> list[int]:
        if v < n_bits:
            return [n_bits + c for c in bit_nbrs[v]]
        return check_nbrs[v - n_bits]

    best = INFINITE_GIRTH
    for start in range(total):
        dist = {start: 0}
        parent = {start: -1}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for v in neighbors(u):
                    if v == parent[u]:
                        continue
                    if v in dist:
                        best = min(best, dist[u] + dist[v] + 1)
                    else:
                        dist[v] = dist[u] + 1
                        parent[v] = u
                        nxt.append(v)
            if 2 * (dist[frontier[0]] + 1) >= best:
                break
            frontier = nxt
    return best


class ConstructionError(RuntimeError):
    def __init__(self, message: str, best_girth: float | None = None):
        super().__init__(message)
        self.best_girth = best_girth


def _peg_attempt(a_n: int, m: int, w: int, s: int, rng: random.Random) -> BinMatrix | None:
    """One progressive-edge-growth pass; returns None if it gets stuck."""
    bit_nbrs: list[set[int]] = [set() for _ in range(a_n)]
    check_nbrs: list[set[int]] = [set() for _ in range(m)]

    def check_distances(bit: int) -> dict[int, int]:
        # BFS from a bit node; distances to check nodes in the current graph
        dist_bit = {bit: 0}
        dist_check: dict[int, int] = {}
        frontier_bits = [bit]
        depth = 0
        while frontier_bits:
            depth += 1
            next_checks = []
            for b in frontier_bits:
                for c in bit_nbrs[b]:
                    if c not in dist_check:
                        dist_check[c] = depth
                        next_checks.append(c)
            depth += 1
            frontier_bits = []
            for c in next_checks:
                for b in check_nbrs[c]:
                    if b not in dist_bit:
                        dist_bit[b] = depth
                        frontier_bits.append(b)
        return dist_check

    for bit in range(a_n):
        for _ in range(s):
            dist_check = check_distances(bit)
            candidates = [c for c in range(m) if len(check_nbrs[c]) < w and c not in bit_nbrs[bit]]
            if not candidates:
                return None
            # farthest check first (unreached counts as infinitely far), then
            # lowest current degree, then seeded random tie-break
            scored = [
                (-(dist_check.get(c, m * a_n + 1)), len(check_nbrs[c]), rng.random(), c)
                for c in candidates
            ]
            _, _, _, chosen = min(scored)
            bit_nbrs[bit].add(chosen)
            check_nbrs[chosen].add(bit)

    rows = []
    for c in range(m):
        word = 0
        for b in check_nbrs[c]:
            word |= 1 << b
        rows.append(word)
    return BinMatrix(m, a_n, tuple(rows))


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

    Progressive edge growth with seeded tie-breaking; deterministic for a
    fixed seed. Raises ConstructionError (carrying the best girth seen) if the
    retry budget runs out.
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
        rng = random.Random(seed * 1_000_003 + attempt)
        matrix = _peg_attempt(a_n, m, w, s, rng)
        if matrix is None:
            continue
        code = OuterCode(matrix, w, s)
        if not code.degree_audit():
            continue
        g = girth(code)
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
    order. Raises ValueError above EXHAUSTIVE_PATTERN_GUARD patterns.
    """
    n_patterns = sum(math.comb(matrix.cols, j) for j in range(1, d_tilde + 1))
    if n_patterns > EXHAUSTIVE_PATTERN_GUARD:
        raise ValueError(
            f"{n_patterns} patterns exceed the exhaustive guard "
            f"({EXHAUSTIVE_PATTERN_GUARD}); lower d_tilde or check a smaller schedule"
        )
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

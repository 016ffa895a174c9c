"""Shared test helpers, including independent oracles for the fault model.

The oracles here deliberately re-derive their semantics from scratch with
plain Python loops over explicit fault patterns and supports, so they share
no code with the vectorized simulator and enumerator they cross-check.
"""
from __future__ import annotations

import math
import random
from itertools import combinations

from msdistill.fault_sim import ProtocolInstance
from msdistill.gf2 import BinMatrix
from msdistill.logdomain import LogScalar


# [[23,1,7]] Golay code: rows x^i (1+x) g(x), i = 0..10, with g(x) = x^11+x^10+x^6+x^5+x^4+x^2+1
_GOLAY_G = sum(1 << e for e in (11, 10, 6, 5, 4, 2, 0))
GOLAY_CHECK = BinMatrix(11, 23, tuple((_GOLAY_G ^ _GOLAY_G << 1) << i for i in range(11)))


def fifteen_to_one(eps: LogScalar) -> LogScalar:
    """One 15->1 round, eps -> 35 eps^3: the recursion predistill_chain's closed form solves."""
    return LogScalar.coerce(35) * eps**3


def enumerate_truncated(
    instance: ProtocolInstance,
    eps: float,
    weight_max: int = 4,
    corruption: str = "erroneous",
) -> tuple[float, float, float]:
    """Exact (accept, erroneous-accept) probability over patterns of weight <= weight_max.

    Returns (p_accept, p_erroneous, tail) where tail bounds the total probability
    of all heavier patterns: sum_{w>weight_max} C(S,w) eps^w <= C(S,w+1) eps^(w+1) / (1-S*eps).
    """
    a_n = instance.num_data
    m = instance.num_checks
    n_q = instance.inner.params.n_q
    d = instance.inner.params.d_q
    row_support = [
        [i for i in range(a_n) if (instance.outer.matrix.row_bits[j] >> i) & 1] for j in range(m)
    ]

    sites: list[tuple] = [("data", i) for i in range(a_n)]
    for j in range(m):
        for q in range(n_q):
            for slot in (0, 1):
                sites.append(("slot", j, q, slot))
    n_sites = len(sites)

    p_accept = 0.0
    p_err = 0.0
    for weight in range(0, weight_max + 1):
        base = eps**weight * (1 - eps) ** (n_sites - weight)
        for chosen in combinations(range(n_sites), weight):
            data = set()
            slots: dict[tuple[int, int], set[int]] = {}
            for idx in chosen:
                site = sites[idx]
                if site[0] == "data":
                    data.add(site[1])
                else:
                    slots.setdefault((site[1], site[2]), set()).add(site[3])
            ok = True
            erroneous = bool(data)
            for j in range(m):
                singles = sum(
                    1 for q in range(n_q) if len(slots.get((j, q), ())) == 1
                )
                doubles = sum(
                    1 for q in range(n_q) if len(slots.get((j, q), ())) == 2
                )
                if 1 <= singles <= d - 1:
                    ok = False
                    break
                outcome = (sum(1 for i in row_support[j] if i in data) + doubles) % 2
                if outcome:
                    ok = False
                    break
                if singles >= d:
                    if corruption == "reject":
                        ok = False
                        break
                    erroneous = True
            if ok:
                p_accept += base
                if erroneous:
                    p_err += base
    geometric = 1.0 - n_sites * eps
    tail = math.comb(n_sites, weight_max + 1) * eps ** (weight_max + 1) / max(geometric, 0.5)
    return p_accept, p_err, tail


def oracle_min_weight(instance: ProtocolInstance, weight_max: int) -> int | None:
    """min over nonzero v of |v| + 2|Mv|, the arithmetic form of the weight bound."""
    a_n = instance.num_data
    matrix = instance.outer.matrix
    best = None
    for weight in range(1, a_n + 1):
        for support in combinations(range(a_n), weight):
            violated = 0
            for j in range(matrix.rows):
                parity = sum((matrix.row_bits[j] >> i) & 1 for i in support) % 2
                violated += parity
            cost = weight + 2 * violated
            if cost <= weight_max and (best is None or cost < best):
                best = cost
    return best


def oracle_syndromes(matrix: BinMatrix, weight_max: int) -> list[tuple[tuple[int, ...], int]]:
    """(support, packed XOR of its columns) for every support of weight 1..weight_max."""
    cols = matrix.column_bits()
    out = []
    for weight in range(1, weight_max + 1):
        for support in combinations(range(matrix.cols), weight):
            acc = 0
            for j in support:
                acc ^= cols[j]
            out.append((support, acc))
    return out


def oracle_sensitivity(
    matrix: BinMatrix, d_tilde: int, s_req: int
) -> tuple[bool, tuple[int, int, int] | None]:
    """The scalar exhaustive sensitivity loop; a witness is (pattern_bits, weight, violated)."""
    cols = matrix.column_bits()
    for weight in range(1, d_tilde + 1):
        for support in combinations(range(matrix.cols), weight):
            acc = 0
            pattern = 0
            for j in support:
                acc ^= cols[j]
                pattern |= 1 << j
            if acc.bit_count() < s_req:
                return False, (pattern, weight, acc.bit_count())
    return True, None


def oracle_peg_attempt(a_n: int, m: int, w: int, s: int, rng: random.Random) -> BinMatrix | None:
    """One progressive-edge-growth pass scored as a tuple list; None if it gets stuck.

    Each edge draws ``rng.random()`` once per open, non-adjacent check in
    ascending order and takes the min of (-distance, degree, draw, check),
    with unreached checks farther than any reached one.
    """
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


def oracle_girth(matrix: BinMatrix) -> float:
    """Shortest Tanner-graph cycle by a dict BFS from every vertex; inf for forests."""
    bit_nbrs, check_nbrs = _adjacency(matrix)
    n_bits, n_checks = matrix.cols, matrix.rows
    total = n_bits + n_checks

    def neighbors(v: int) -> list[int]:
        if v < n_bits:
            return [n_bits + c for c in bit_nbrs[v]]
        return check_nbrs[v - n_bits]

    best = math.inf
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


def oracle_span(matrix: BinMatrix) -> set[int]:
    """Every packed vector in the row span, by a plain loop over the rows."""
    span = {0}
    for row in matrix.row_bits:
        span |= {x ^ row for x in span}
    return span


def oracle_check(
    check: BinMatrix, d: int, mode: str, residual: int, outcome: int
) -> tuple[bool, bool, bool]:
    """(rejected, flipped, corrupt) of one check from its packed residual and outcome parity.

    The residual holds the qubits with exactly one faulty slot. Idealized mode
    rejects at weight 1..d-1 and corrupts at weight >= d. Exact mode rejects a
    residual that overlaps some check row oddly, and corrupts one that does
    not and lies outside the rows' span. A rejected check is never corrupt.
    """
    if mode == "idealized":
        rejected = 1 <= residual.bit_count() <= d - 1
        corrupt = residual.bit_count() >= d
    else:
        rejected = any((row & residual).bit_count() % 2 for row in check.row_bits)
        corrupt = not rejected and residual not in oracle_span(check)
    return rejected, outcome % 2 == 1, corrupt


def oracle_verdicts(
    instance: ProtocolInstance, mode: str, faults: list[tuple[int, int]]
) -> tuple[set, set, set]:
    """The (trial, check) pairs that reject, flip and corrupt under a list of (trial, site) faults.

    A trial's sites are the a_n data states, then two slots per qubit per
    check. Each check of each trial that holds a fault is decided on its own
    by ``oracle_check``.
    """
    a_n, m = instance.num_data, instance.num_checks
    n_q, d = instance.inner.params.n_q, instance.inner.params.d_q
    by_trial: dict[int, set[int]] = {}
    for trial, site in faults:
        by_trial.setdefault(trial, set()).add(site)
    verdicts: tuple[set, set, set] = (set(), set(), set())
    for trial, sites in by_trial.items():
        for j in range(m):
            row = instance.outer.matrix.row_bits[j]
            outcome = sum(1 for i in range(a_n) if i in sites and (row >> i) & 1)
            residual = 0
            for q in range(n_q):
                first = a_n + 2 * (j * n_q + q)
                hits = (first in sites) + (first + 1 in sites)
                if hits == 1:
                    residual |= 1 << q
                outcome += hits == 2
            flags = oracle_check(instance.inner.check, d, mode, residual, outcome)
            for found, flag in zip(verdicts, flags):
                if flag:
                    found.add((trial, j))
    return verdicts


def oracle_min_distance(check: BinMatrix) -> int:
    """Lightest vector with zero syndrome outside the row space, by brute force over 2^n.

    Returns cols + 1 when every zero-syndrome vector lies in the row space.
    """
    n = check.cols
    span = oracle_span(check)
    best = n + 1
    for vector in range(1, 1 << n):
        in_kernel = all((row & vector).bit_count() % 2 == 0 for row in check.row_bits)
        if in_kernel and vector not in span:
            best = min(best, vector.bit_count())
    return best


def oracle_residual_classes(check: BinMatrix) -> list[str]:
    """The class of every packed residual 0 .. 2^cols - 1: detected, stabilizer or logical.

    A residual overlapping some check row oddly is detected. Otherwise it is a
    stabilizer when it lies in the rows' span, else a logical.
    """
    span = oracle_span(check)
    classes = []
    for residual in range(1 << check.cols):
        if any((row & residual).bit_count() % 2 for row in check.row_bits):
            classes.append("detected")
        else:
            classes.append("stabilizer" if residual in span else "logical")
    return classes

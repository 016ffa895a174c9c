"""Fault-injection simulation of the check-and-post-select semantics.

Faults live on the data magic states and on the two T-type slots of every
physical qubit in every check. A check rejects on a detectable residual, flips
its outcome when a qubit has both slots faulty, and is corrupted by a logical
residual: weight >= d (idealized mode) or outside the row space (exact mode).

Faults have one format: a list of (trial, site) pairs, sorted. One vectorized
verdict decides every check from such a list; the Monte Carlo sampler passes
the trials it drew, ``min_undetected_weight`` a batch of candidates. The
sampler draws only the faulty sites (the gaps between faults are geometric),
so its cost, memory included, scales with trials x sites x eps and no trial x
site grid is built. A fault-free trial is accepted and not erroneous.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Iterator

import numpy as np

from .analytics import hadamard_step_counts
from .gf2 import BinMatrix, exhaustive_guard, row_space
from .inner_codes import CssCodeParams, WeaklySelfDualCode
from .outer_codes import OuterCode, check_sensitivity

DEFAULT_BLOCK_SIZE = 1 << 16
MAX_CHUNK_FAULTS = 1 << 16


@dataclass(frozen=True)
class ProtocolInstance:
    """A desk-scale inner code plus outer schedule, ready for fault injection."""

    inner: WeaklySelfDualCode
    outer: OuterCode
    strict: bool = True

    def __post_init__(self) -> None:
        if self.strict:
            k, d = self.inner.params.k_q, self.inner.params.d_q
            if self.outer.check_degree != k:
                raise ValueError(
                    f"outer check degree {self.outer.check_degree} != inner k {k}"
                )
            ok, witness = check_sensitivity(self.outer.matrix, d - 1, (d - 1) // 2)
            if not ok:
                raise ValueError(f"outer schedule fails sensitivity: {witness}")

    @property
    def num_data(self) -> int:
        return self.outer.num_bits

    @property
    def num_checks(self) -> int:
        return self.outer.num_checks

    @property
    def fault_sites(self) -> int:
        return hadamard_step_counts(self.inner.params, self.num_data, self.num_checks)


def _wilson_interval(successes: int, total: int) -> tuple[float | None, float, float]:
    """(point estimate, low, high) 95% Wilson interval; no point estimate over zero trials."""
    if total == 0:
        return (None, 0.0, 1.0)
    z = 1.959963984540054
    p = successes / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total))
    return (p, max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class SimReport:
    """Monte Carlo verdict statistics with 95% Wilson intervals."""

    trials: int
    accepted: int
    erroneous_accepted: int
    data_flips_accepted: int
    eps: float
    seed: int
    mode: str
    corruption: str

    @property
    def accept_prob(self) -> tuple[float | None, float, float]:
        return _wilson_interval(self.accepted, self.trials)

    @property
    def eps_out_total(self) -> tuple[float | None, float, float]:
        return _wilson_interval(self.erroneous_accepted, self.accepted)

    def to_json_dict(self) -> dict[str, object]:
        point, lo, hi = self.eps_out_total
        a_point, a_lo, a_hi = self.accept_prob
        return {
            **asdict(self),
            "eps_out_total": point,
            "eps_out_ci": [lo, hi],
            "accept_prob": a_point,
            "accept_prob_ci": [a_lo, a_hi],
        }


def _csr(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pointers, indices): row i's nonzero columns are indices[pointers[i] : pointers[i + 1]]."""
    rows, cols = np.nonzero(matrix)
    return np.searchsorted(rows, np.arange(len(matrix) + 1)), cols


def _expand(csr: tuple[np.ndarray, np.ndarray], items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, index) for every CSR index of every item; owner is the item's position."""
    pointers, indices = csr
    starts, counts = pointers[items], pointers[items + 1] - pointers[items]
    owner = np.repeat(np.arange(len(items)), counts)
    offset = np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]
    return owner, indices[starts[owner] + offset]


@dataclass(frozen=True)
class _Kernel:
    """Precomputed arrays shared by every verdict on one instance in one mode.

    The outer matrix is held by columns: the checks each data state enters.
    Exact mode holds, for each inner qubit, the rows of [H; K] that contain
    it, where H is the inner check matrix and K the row space's parity checks.
    """

    num_data: int
    num_checks: int
    params: CssCodeParams
    data_checks: tuple[np.ndarray, np.ndarray]  # CSR over data states of the outer matrix
    qubit_rows: tuple[np.ndarray, np.ndarray] | None  # CSR over qubits of [H; K], exact mode only
    syndrome_rows: int  # rows(H): the leading rows of [H; K]
    inner_rows: int  # rows([H; K])

    @classmethod
    def build(cls, instance: ProtocolInstance, mode: str) -> "_Kernel":
        outer, params = instance.outer.matrix.to_array(), instance.inner.params
        common = (instance.num_data, instance.num_checks, params, _csr(outer.T))
        if mode == "idealized":
            return cls(*common, None, 0, 0)
        if mode == "exact":
            check = instance.inner.check
            stacked = np.vstack((check.to_array(), row_space(check).to_array()))
            return cls(*common, _csr(stacked.T), check.rows, len(stacked))
        raise ValueError(f"unknown mode {mode!r}")


def _fault_positions(
    rng: np.random.Generator, eps: float, trials: int, sites: int
) -> Iterator[np.ndarray]:
    """Flat indices ``trial * sites + site`` of the faulty sites of a trial grid.

    Every site of every trial is faulty independently with probability eps.
    The gaps between consecutive faults are geometric, drawn in chunks of at
    most MAX_CHUNK_FAULTS; a chunk covers the expected fault count plus six
    standard deviations, so a block almost always needs one. Yields nonempty
    increasing int64 arrays, none of which splits one trial's faults; the draw
    stops at the end of the grid.
    """
    if eps == 0.0:
        return
    cells = trials * sites
    expected = eps * cells
    size = int(min(MAX_CHUNK_FAULTS, expected + 6.0 * math.sqrt(expected) + 16))
    held = np.empty(0, dtype=np.int64)
    last = -1
    while True:
        gaps = rng.geometric(eps, size)
        # a gap of cells + 1 lands past the grid's end even from last = -1, like
        # any longer gap; clipping keeps cumsum in int64
        np.minimum(gaps, cells + 1, out=gaps)
        positions = np.concatenate((held, last + np.cumsum(gaps)))
        last = int(positions[-1])
        if last >= cells:
            positions = positions[: np.searchsorted(positions, cells)]
            if positions.size:
                yield positions
            return
        # the last trial may go on in the next chunk: hold it back
        cut = int(np.searchsorted(positions, last - last % sites))
        held = positions[cut:]
        if cut:
            yield positions[:cut]


def _verdicts(
    kernel: _Kernel, trial: np.ndarray, site: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (rejected, flipped, corrupt) checks of a fault list, as keys trial * m + check.

    Entry i of the list says that site ``site[i]`` of trial ``trial[i]`` is
    faulty. A trial's sites are the a_n data states, then the slots in
    (m, n_q, 2) order. The list is sorted by (trial, site) without repeats.

    A check's outcome flips when its data faults and its doubles (both slots
    of one qubit) are odd in number. Its singles form the residual, which
    rejects at weight 1..d-1 (idealized) or with a nonzero syndrome (exact),
    and corrupts at weight >= d or as a logical. The keys come sorted and
    unique. A rejected check is never corrupt; whether it flipped means nothing.
    """
    m, a_n, n_q = kernel.num_checks, kernel.num_data, kernel.params.n_q
    data = site < a_n
    owner, check = _expand(kernel.data_checks, site[data])
    data_flips = trial[data][owner] * m + check

    # (trial, check, qubit) of each slot fault, sorted: the two slots of a qubit are adjacent
    slot = trial[~data] * (m * n_q) + (site[~data] - a_n) // 2
    double = np.flatnonzero(slot[1:] == slot[:-1])  # faults i and i + 1 form a double
    single = np.delete(slot, np.concatenate((double, double + 1)))
    keys, counts = np.unique(np.concatenate((data_flips, slot[double] // n_q)), return_counts=True)
    flipped = keys[counts % 2 == 1]

    if kernel.qubit_rows is None:
        keys, weight = np.unique(single // n_q, return_counts=True)
        return keys[weight < kernel.params.d_q], flipped, keys[weight >= kernel.params.d_q]
    # parity of each row of [H; K] over each check's singles
    owner, row = _expand(kernel.qubit_rows, single % n_q)
    keys, counts = np.unique(single[owner] // n_q * kernel.inner_rows + row, return_counts=True)
    check, row = np.divmod(keys[counts % 2 == 1], kernel.inner_rows)
    rejected = np.unique(check[row < kernel.syndrome_rows])
    return rejected, flipped, np.setdiff1d(check[row >= kernel.syndrome_rows], rejected)


def _tally(
    kernel: _Kernel, trial: np.ndarray, site: np.ndarray, rows: int, corruption: str
) -> tuple[int, int, int]:
    """(accepted, erroneous_accepted, data_flips_accepted) over trials 0..rows-1 of a fault list."""
    m = kernel.num_checks
    rejected, flipped, corrupt = _verdicts(kernel, trial, site)
    accept = np.bincount(np.concatenate((rejected, flipped)) // m, minlength=rows) == 0
    corrupted = np.bincount(corrupt // m, minlength=rows) > 0
    data = np.bincount(trial[site < kernel.num_data], minlength=rows)
    if corruption == "reject":
        accept &= ~corrupted
        erroneous = accept & (data > 0)
    else:  # "erroneous": corrupted trials stay in, counted as output errors
        erroneous = accept & ((data > 0) | corrupted)
    return int(accept.sum()), int(erroneous.sum()), int(data[accept].sum())


def _simulate_block(
    kernel: _Kernel, eps: float, seed: int, block_index: int, block_size: int, corruption: str
) -> tuple[int, int, int]:
    """Returns (accepted, erroneous_accepted, data_flips_accepted) for one block.

    Each chunk of drawn faults becomes a fault list over the trials it
    touches, renumbered in order, and only those trials are decided; a
    fault-free trial is accepted and not erroneous in both modes and under
    both conventions.
    """
    n_sites = hadamard_step_counts(kernel.params, kernel.num_data, kernel.num_checks)

    key = ((seed & ((1 << 64) - 1)) << 64) | (block_index & ((1 << 64) - 1))
    rng = np.random.Generator(np.random.Philox(key=key))

    accepted, erroneous, flips = block_size, 0, 0
    for positions in _fault_positions(rng, eps, block_size, n_sites):
        trial, site = np.divmod(positions, n_sites)
        # renumber the touched trials 0, 1, ... in order: the positions are sorted
        row = np.zeros(len(trial), dtype=np.int64)
        np.cumsum(trial[1:] != trial[:-1], out=row[1:])
        touched = int(row[-1]) + 1
        acc, err, flip = _tally(kernel, row, site, touched, corruption)
        accepted += acc - touched
        erroneous += err
        flips += flip
    return accepted, erroneous, flips


def monte_carlo(
    instance: ProtocolInstance,
    eps: float,
    trials: int,
    seed: int,
    *,
    mode: str = "idealized",
    corruption: str = "erroneous",
    workers: int | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> SimReport:
    """Sample independent faults on every site and tally post-selection verdicts.

    Only the faulty sites are drawn (geometric gaps between faults), so the
    cost scales with trials x fault sites x eps, and only the trials holding a
    fault are decided. The RNG is counter-based and keyed by (seed, block
    index) with a fixed block size, so results are bit-identical for any
    worker count. This sparse draw replaced a dense one, so a given seed
    yields different, equally distributed counts than earlier versions did.
    """
    if not 0 <= eps < 0.5:
        raise ValueError("eps must be in [0, 0.5)")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    if corruption not in ("erroneous", "reject"):
        raise ValueError(f"unknown corruption convention {corruption!r}")

    kernel = _Kernel.build(instance, mode)
    n_blocks = (trials + block_size - 1) // block_size
    sizes = [block_size] * (n_blocks - 1) + [trials - block_size * (n_blocks - 1)]

    def job(index: int) -> tuple[int, int, int]:
        return _simulate_block(kernel, eps, seed, index, sizes[index], corruption)

    if workers is None:
        workers = min(n_blocks, os.cpu_count() or 1)
    if workers <= 1 or n_blocks == 1:
        results = [job(i) for i in range(n_blocks)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(job, range(n_blocks)))

    accepted, erroneous, flips = map(sum, zip(*results))
    return SimReport(trials, accepted, erroneous, flips, eps, seed, mode, corruption)


def make_single_check_instance(inner: WeaklySelfDualCode, data_count: int = 4) -> ProtocolInstance:
    """One all-ones check over ``data_count`` states, with no outer protection."""
    row = (1 << data_count) - 1
    outer = OuterCode(BinMatrix(1, data_count, (row,)), data_count, 1)
    return ProtocolInstance(inner, outer, strict=False)


@dataclass(frozen=True)
class SlopeFit:
    """Weighted least-squares fit of log eps_out against log eps."""

    slope: float
    intercept: float
    points: tuple[tuple[float, float, int], ...]  # (eps, eps_out, events)


def fit_error_order(
    instance: ProtocolInstance, eps_values: list[float], trials: int, seed: int, **kwargs: object
) -> SlopeFit:
    """Estimate the error-suppression order from a Monte Carlo sweep.

    Points are weighted by their erroneous-accept counts (the inverse variance
    of a log-Poisson estimate); zero-event points are dropped.
    """
    points = []
    for i, eps in enumerate(eps_values):
        report = monte_carlo(instance, eps, trials, seed + i, **kwargs)  # type: ignore[arg-type]
        if report.accepted and report.erroneous_accepted:
            points.append((eps, report.eps_out_total[0], report.erroneous_accepted))
    if len(points) < 2:
        raise RuntimeError("not enough nonzero points for a slope fit")
    x = np.log([p[0] for p in points])
    y = np.log([p[1] for p in points])
    w = np.array([p[2] for p in points], dtype=float)
    slope, intercept = np.polyfit(x, y, 1, w=np.sqrt(w))
    return SlopeFit(float(slope), float(intercept), tuple(points))


def min_undetected_weight(instance: ProtocolInstance, weight_max: int) -> int | None:
    """Lightest accepted fault pattern leaving a data error, or None if > weight_max.

    Enumerates data patterns by ascending weight; each one that could still
    win becomes a candidate assignment that hides every violated check with a
    slot double on its first qubit. The candidates of one weight are verified
    together by the check verdict. Refuses, through :func:`gf2.exhaustive_guard`,
    to start a weight whose data patterns would pass the guard.
    """
    a_n = instance.num_data
    n_q = instance.inner.params.n_q
    cols = instance.outer.matrix.column_bits()
    kernel = _Kernel.build(instance, "idealized")

    best: int | None = None
    for weight in range(1, min(weight_max, a_n) + 1):
        if best is not None and weight >= best:
            break
        exhaustive_guard(a_n, weight)
        candidates, costs = [], []
        for support in combinations(range(a_n), weight):
            acc = 0
            for j in support:
                acc ^= cols[j]
            cost = weight + 2 * acc.bit_count()
            if cost <= weight_max and (best is None or cost < best):
                # its data sites, then a double on the first qubit of each violated check
                first = [a_n + 2 * n_q * j for j in range(acc.bit_length()) if acc >> j & 1]
                candidates.append((*support, *(slot + t for slot in first for t in (0, 1))))
                costs.append(cost)
        if not candidates:
            continue
        trial, site = np.array([(i, s) for i, sites in enumerate(candidates) for s in sites]).T
        rejected, flipped, _ = _verdicts(kernel, trial, site)
        bad = np.concatenate((rejected, flipped)) // instance.num_checks
        accepted = np.bincount(bad, minlength=len(candidates)) == 0
        if accepted.any():  # every candidate costs less than the best so far
            best = int(np.array(costs)[accepted].min())
    return best

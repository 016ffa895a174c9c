"""Fault-injection simulation of the check-and-post-select semantics.

Faults live on the data magic states and on the two T-type slots of every
physical qubit in every check. A check rejects on a detectable residual, flips
its outcome when a qubit has both slots faulty, and is corrupted by a logical
residual: weight >= d (idealized mode) or outside the row space (exact mode).

One vectorized verdict decides every check: ``run_check`` is that kernel on
one row, and ``min_undetected_weight`` calls it on a batch. The Monte Carlo
sampler draws only the faulty sites: the gaps between faults are geometric,
so its cost scales with trials x sites x eps, and only trials holding a fault
reach the verdict. A fault-free trial is accepted and not erroneous.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

import numpy as np

from .analytics import hadamard_step_counts
from .gf2 import BinMatrix, row_space
from .inner_codes import CssCodeParams, WeaklySelfDualCode
from .outer_codes import OuterCode, check_sensitivity

DEFAULT_BLOCK_SIZE = 1 << 16
MAX_CHUNK_FAULTS = 1 << 16
ENUMERATION_SITE_GUARD = 64
ENUMERATION_WEIGHT_GUARD = 6


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


@dataclass(frozen=True)
class FaultAssignment:
    """Concrete fault pattern: data flips plus per-check, per-qubit slot faults."""

    data: np.ndarray  # (a_n,) 0/1
    slots: np.ndarray  # (m, n_q, 2) 0/1

    @property
    def weight(self) -> int:
        return int(self.data.sum()) + int(self.slots.sum())


@dataclass(frozen=True)
class CheckVerdict:
    rejected: bool
    outcome: int
    corrupted: bool


def run_check(
    instance: ProtocolInstance,
    check_index: int,
    faults: FaultAssignment,
    mode: str = "idealized",
) -> CheckVerdict:
    """Evaluate one check of the schedule against a fault assignment.

    This is the Monte Carlo kernel's verdict on a grid of one row. Idealized
    mode uses only the inner distance: a residual of weight 1..d-1 rejects,
    weight >= d is a logical-corruption event. Exact mode computes the
    residual's syndrome against the inner check matrix. A rejected check
    reads (True, 0, False). Fault arrays not shaped for the instance are refused.
    """
    shapes = ((instance.num_data,), (instance.num_checks, instance.inner.params.n_q, 2))
    if (faults.data.shape, faults.slots.shape) != shapes:
        raise ValueError(
            f"fault shapes data {faults.data.shape}, slots {faults.slots.shape} do not "
            f"match the instance's data {shapes[0]}, slots {shapes[1]}"
        )
    row = np.concatenate((faults.data, faults.slots.reshape(-1))).astype(bool)
    reject, outcome, corrupt = _verdicts(_Kernel.build(instance, mode), row[None, :])
    if reject[0, check_index]:
        return CheckVerdict(True, 0, False)
    return CheckVerdict(False, int(outcome[0, check_index]), bool(corrupt[0, check_index]))


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
            "trials": self.trials,
            "accepted": self.accepted,
            "erroneous_accepted": self.erroneous_accepted,
            "data_flips_accepted": self.data_flips_accepted,
            "eps": self.eps,
            "seed": self.seed,
            "mode": self.mode,
            "corruption": self.corruption,
            "eps_out_total": point,
            "eps_out_ci": [lo, hi],
            "accept_prob": a_point,
            "accept_prob_ci": [a_lo, a_hi],
        }


@dataclass(frozen=True)
class _Kernel:
    """Precomputed arrays shared by every verdict on one instance in one mode.

    Exact mode holds the inner checks H over the row space's parity checks K.
    """

    outer: np.ndarray  # (m, a_n) uint8
    params: CssCodeParams
    inner_checks: tuple[np.ndarray, ...] | None  # qubits of each row of [H; K], exact mode only
    syndrome_rows: int  # rows(H): the leading rows of inner_checks

    @classmethod
    def build(cls, instance: ProtocolInstance, mode: str) -> "_Kernel":
        outer, params = instance.outer.matrix.to_array(), instance.inner.params
        if mode == "idealized":
            return cls(outer, params, None, 0)
        if mode == "exact":
            check = instance.inner.check
            stacked = np.vstack((check.to_array(), row_space(check).to_array()))
            return cls(outer, params, tuple(map(np.flatnonzero, stacked)), check.rows)
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


def _verdicts(kernel: _Kernel, faults: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-check (reject, outcome, corrupt), each of shape (rows, m), over a fault grid.

    A grid row holds one trial's sites: the a_n data states, then the slots in
    (m, n_q, 2) order. A rejected check is never corrupt; its outcome means
    nothing.
    """
    m, a_n = kernel.outer.shape
    n_q, d = kernel.params.n_q, kernel.params.d_q

    data = faults[:, :a_n]
    slots = faults[:, a_n:].reshape(len(faults), m, n_q, 2)
    single = slots[..., 0] ^ slots[..., 1]
    doubles = slots[..., 0] & slots[..., 1]
    double_parity = doubles.sum(axis=2, dtype=np.int64) & 1
    data_parity = (data.astype(np.uint8) @ kernel.outer.T.astype(np.int64)) & 1
    outcome = data_parity ^ double_parity

    if kernel.inner_checks is None:
        residual = single.sum(axis=2, dtype=np.int64)
        reject = (residual >= 1) & (residual <= d - 1)
        corrupt = residual >= d
    else:
        # [H; K] x residuals over GF(2): each row XORs the residual bits of its qubits
        qubits = np.ascontiguousarray(single.transpose(2, 0, 1))  # (n_q, rows, m)
        odd = np.array([np.bitwise_xor.reduce(qubits[row], axis=0) for row in kernel.inner_checks])
        reject = odd[: kernel.syndrome_rows].any(axis=0)
        corrupt = ~reject & odd[kernel.syndrome_rows :].any(axis=0)
    return reject, outcome, corrupt


def _tally(kernel: _Kernel, faults: np.ndarray, corruption: str) -> tuple[int, int, int]:
    """(accepted, erroneous_accepted, data_flips_accepted) over rows of a fault grid."""
    reject, outcome, corrupt = _verdicts(kernel, faults)
    data = faults[:, : kernel.outer.shape[1]]
    accept = ~reject.any(axis=1) & ~outcome.any(axis=1)
    corrupt = corrupt.any(axis=1)
    if corruption == "reject":
        accept &= ~corrupt
        erroneous = accept & data.any(axis=1)
    else:  # "erroneous": corrupted trials stay in, counted as output errors
        erroneous = accept & (data.any(axis=1) | corrupt)

    flips = int(data.sum(axis=1, dtype=np.int64)[accept].sum())
    return int(accept.sum()), int(erroneous.sum()), flips


def _simulate_block(
    kernel: _Kernel,
    eps: float,
    seed: int,
    block_index: int,
    block_size: int,
    corruption: str,
) -> tuple[int, int, int]:
    """Returns (accepted, erroneous_accepted, data_flips_accepted) for one block.

    Only the trials that hold a fault reach the verdict; a fault-free trial is
    accepted and not erroneous in both modes and under both conventions.
    """
    m, a_n = kernel.outer.shape
    n_sites = hadamard_step_counts(kernel.params, a_n, m)

    key = ((seed & ((1 << 64) - 1)) << 64) | (block_index & ((1 << 64) - 1))
    rng = np.random.Generator(np.random.Philox(key=key))

    accepted, erroneous, flips = block_size, 0, 0
    for positions in _fault_positions(rng, eps, block_size, n_sites):
        # one grid row per touched trial, in trial order
        trial, site = np.divmod(positions, n_sites)
        touched, row = np.unique(trial, return_inverse=True)
        faults = np.zeros((len(touched), n_sites), dtype=bool)
        faults[row, site] = True
        acc, err, flip = _tally(kernel, faults, corruption)
        accepted += acc - len(faults)
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

    accepted = sum(r[0] for r in results)
    erroneous = sum(r[1] for r in results)
    flips = sum(r[2] for r in results)
    return SimReport(trials, accepted, erroneous, flips, eps, seed, mode, corruption)


def make_single_check_instance(
    inner: WeaklySelfDualCode, data_count: int = 4
) -> ProtocolInstance:
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
    instance: ProtocolInstance,
    eps_values: list[float],
    trials: int,
    seed: int,
    **kwargs: object,
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


def min_undetected_weight(
    instance: ProtocolInstance, weight_max: int
) -> int | None:
    """Lightest accepted fault pattern leaving a data error, or None if > weight_max.

    Enumerates data patterns by ascending weight; each one that could still
    win becomes a candidate assignment that hides every violated check with a
    slot double on its first qubit. The candidates of one weight are verified
    together by the check verdict. Guarded to desk scale.
    """
    if instance.fault_sites > ENUMERATION_SITE_GUARD and weight_max > ENUMERATION_WEIGHT_GUARD:
        raise ValueError(
            f"enumeration guard: need fault sites <= {ENUMERATION_SITE_GUARD} "
            f"or weight_max <= {ENUMERATION_WEIGHT_GUARD}"
        )
    a_n = instance.num_data
    m = instance.num_checks
    n_q = instance.inner.params.n_q
    cols = instance.outer.matrix.column_bits()
    kernel = _Kernel.build(instance, "idealized")

    best: int | None = None
    for weight in range(1, min(weight_max, a_n) + 1):
        if best is not None and weight >= best:
            break
        supports, costs = [], []
        for support in combinations(range(a_n), weight):
            acc = 0
            for j in support:
                acc ^= cols[j]
            cost = weight + 2 * acc.bit_count()
            if cost <= weight_max and (best is None or cost < best):
                supports.append(support)
                costs.append(cost)
        if not supports:
            continue
        faults = np.zeros((len(supports), instance.fault_sites), dtype=bool)
        faults[np.arange(len(supports))[:, None], supports] = True
        violated = (faults[:, :a_n].astype(np.uint8) @ kernel.outer.T.astype(np.int64)) & 1
        slots = faults[:, a_n:].reshape(len(supports), m, n_q, 2)  # a view
        slots[:, :, 0, :] = violated[:, :, None]  # a double on the first qubit
        reject, outcome, _ = _verdicts(kernel, faults)
        accepted = ~reject.any(axis=1) & ~outcome.any(axis=1)
        if accepted.any():  # every candidate costs less than the best so far
            best = int(np.array(costs)[accepted].min())
    return best

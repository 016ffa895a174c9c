"""Fault-injection simulation of the check-and-post-select semantics.

Faults live on the data magic states and on the two T-type slots of every
physical qubit in every check. A check rejects on a detectable residual, flips
its outcome when a qubit has both slots faulty, and is corrupted by a logical
residual: weight >= d (idealized mode) or outside the row space (exact mode).

Faults have one format: a list of (trial, site) pairs, sorted. One vectorized
verdict decides every check of the trials that the Monte Carlo sampler drew.
The sampler draws only the faulty sites (the gaps between faults are
geometric), so its cost, memory included, scales with trials x sites x eps and
no trial x site grid is built. A fault-free trial is accepted and not
erroneous. A trial with one fault, most of the touched trials at small eps, is
decided by a per-site table that one verdict on the one-fault trial of every
site builds per call. Each worker takes a strided share of the blocks, counts
their one-fault trials by site and packs the faults of the other trials into
fault lists of up to MAX_CHUNK_FAULTS faults (fewer when the share expects
fewer), one verdict each, so small blocks at small eps share the verdict's
fixed cost. A call takes at most one share per MAX_CHUNK_FAULTS expected
faults. Exact mode XORs each check's single-slot faults' packed row masks into
its parities. The shares of a threaded call run on one thread pool per
process, built by the first such call and kept for later ones; a forked child
builds its own.
``min_undetected_weight`` needs no verdict: its lightest accepted pattern has
a closed form over the outer matrix alone.
"""
from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Iterator

import numpy as np

from . import InfeasibleError
from .analytics import hadamard_step_counts
from .gf2 import BinMatrix, exhaustive_guard, row_space
from .inner_codes import CssCodeParams, WeaklySelfDualCode
from .outer_codes import OuterCode, check_sensitivity

DEFAULT_BLOCK_SIZE = 1 << 16
MAX_CHUNK_FAULTS = 1 << 16
_POOL_THREADS = 64  # threads of the shared pool, and so shares of one call

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_fork_hook = False


def _forget_pool() -> None:
    """In a forked child: the parent's pool threads do not exist here, so start over."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


def _shared_pool() -> ThreadPoolExecutor:
    """The process's one Monte Carlo pool, built on first use.

    Its threads start on demand, up to _POOL_THREADS, and wait between calls. A
    forked child drops the pool it inherits and builds its own.
    """
    global _pool, _fork_hook
    with _pool_lock:
        if not _fork_hook:
            os.register_at_fork(after_in_child=_forget_pool)
            _fork_hook = True
        if _pool is None:
            _pool = ThreadPoolExecutor(_POOL_THREADS, thread_name_prefix="monte_carlo")
        return _pool


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
            ok, witness = check_sensitivity(self.outer, d - 1, (d - 1) // 2)
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
    lo, hi = max(0.0, center - half), min(1.0, center + half)
    # at p = 0 or 1 the float endpoint can round past p; the interval must contain its point
    return (p, min(lo, p), max(hi, p))


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


@dataclass(frozen=True)
class _Kernel:
    """Precomputed arrays shared by every verdict on one instance in one mode.

    The outer matrix is held as a padded table: row i lists the checks that
    data state i enters, ascending, then -1 up to the largest column weight.
    Exact mode holds, for each inner qubit, a packed mask of the rows of [H; K]
    that contain it (H the inner check matrix in the leading words, K the row
    space's parity checks).
    """

    num_data: int
    num_checks: int
    params: CssCodeParams
    data_checks: np.ndarray  # (a_n, max column weight) check indices, padded with -1
    qubit_rows: np.ndarray | None  # (n_q, words) uint64 masks of [H; K], exact mode only
    syndrome_words: int  # the leading words of a mask, which hold H's rows

    @classmethod
    def build(cls, instance: ProtocolInstance, mode: str) -> "_Kernel":
        incidence = instance.outer.matrix.to_array().T.astype(bool)  # (a_n, m)
        width = int(incidence.sum(axis=1).max(initial=0))
        # a stable sort brings each data state's checks to the front, in ascending order
        order = np.argsort(~incidence, axis=1, kind="stable")[:, :width]
        data_checks = np.where(np.take_along_axis(incidence, order, axis=1), order, -1)
        common = (instance.num_data, instance.num_checks, instance.inner.params, data_checks)
        if mode == "idealized":
            return cls(*common, None, 0)
        if mode == "exact":
            check = instance.inner.check
            syndrome = check.column_words()
            rows = np.hstack((syndrome, row_space(check).column_words()))
            return cls(*common, rows, syndrome.shape[1])
        raise ValueError(f"unknown mode {mode!r}")


def _chunk_faults(expected: float) -> int:
    """Room for ``expected`` faults plus six standard deviations, at most MAX_CHUNK_FAULTS."""
    return int(min(MAX_CHUNK_FAULTS, expected + 6.0 * math.sqrt(expected) + 16))


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
    size = _chunk_faults(eps * cells)
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
    checks = np.take(kernel.data_checks, site[data], axis=0)
    data_flips = (trial[data][:, None] * m + checks)[checks >= 0]

    # (trial, check, qubit) of each slot fault, sorted: the two slots of a qubit are adjacent
    slot = trial[~data] * (m * n_q) + ((site[~data] - a_n) >> 1)
    pair = slot[1:] == slot[:-1]  # faults i and i + 1 form a double
    in_double = np.zeros(len(slot), dtype=bool)
    in_double[:-1] = pair
    in_double[1:] |= pair
    single = slot[~in_double]
    keys, counts = np.unique(
        np.concatenate((data_flips, slot[:-1][pair] // n_q)), return_counts=True
    )
    flipped = keys[counts % 2 == 1]

    home = single // n_q  # each single's key trial * m + check, sorted
    first = np.ones(len(home), dtype=bool)  # where each check's run of singles begins
    np.not_equal(home[1:], home[:-1], out=first[1:])
    start = np.flatnonzero(first)
    keys = home[start]
    if kernel.qubit_rows is None:
        weight = np.diff(start, append=len(home))
        return keys[weight < kernel.params.d_q], flipped, keys[weight >= kernel.params.d_q]
    # each check's residual parities: the XOR over its run of singles of their [H; K] masks
    parity = np.bitwise_xor.reduceat(np.take(kernel.qubit_rows, single % n_q, axis=0), start)
    s = kernel.syndrome_words
    rejected = _nonzero_rows(parity[:, :s])
    return keys[rejected], flipped, keys[~rejected & _nonzero_rows(parity[:, s:])]


def _nonzero_rows(words: np.ndarray) -> np.ndarray:
    """Which rows of a 2-D uint64 array hold a set bit: an OR over its few columns.

    ``words.any(axis=1)`` takes a slow path on short rows: about nine times
    slower on 34k rows of two words.
    """
    acc = np.zeros(len(words), dtype=np.uint64)
    for column in words.T:
        acc |= column
    return acc != 0


def _outcomes(
    kernel: _Kernel, trial: np.ndarray, site: np.ndarray, rows: int, corruption: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial (accepted, erroneous_accepted, data faults) over trials 0..rows-1 of a fault list.

    The one verdict of the sampler: :func:`_tally` sums it over a packed fault
    list and :func:`_site_table` reads it off the one-fault trials.
    """
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
    return accept, erroneous, data


def _tally(
    kernel: _Kernel, trial: np.ndarray, site: np.ndarray, rows: int, corruption: str
) -> tuple[int, int, int]:
    """(accepted, erroneous_accepted, data_flips_accepted) over trials 0..rows-1 of a fault list.

    The sums of :func:`_outcomes`; the sampler calls it on the fault lists of
    trials with two or more faults.
    """
    accept, erroneous, data = _outcomes(kernel, trial, site, rows, corruption)
    return int(accept.sum()), int(erroneous.sum()), int(data[accept].sum())


def _site_table(kernel: _Kernel, sites: int, corruption: str) -> np.ndarray:
    """The per-site table: a (3, sites) int64 array.

    Column s holds (accepted, erroneous_accepted, data_flips_accepted) of a
    trial whose only fault is at site s; one verdict decides all ``sites``
    such trials.
    """
    each = np.arange(sites, dtype=np.int64)
    accept, erroneous, data = _outcomes(kernel, each, each, sites, corruption)
    return np.stack((accept, erroneous, data * accept)).astype(np.int64)


def _fault_lists(
    chunks: Iterator[np.ndarray], sites: int, limit: int, lone: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """Packs chunks of sorted fault positions into (trial, site, rows) fault lists.

    A fault whose trial differs from both its neighbours' (a chunk never
    splits a trial) is its trial's only one: it is counted in ``lone[site]``
    and not packed. The other faults go into one buffer of ``limit + sites``
    faults, each chunk's touched trials renumbered after those already there.
    The buffer is yielded before a chunk that would take it past ``limit``
    faults, and at the end. A chunk of :func:`_fault_positions` holds at most
    its draw's :func:`_chunk_faults` plus one held-back trial, so with
    ``limit`` no smaller than that the buffer takes any chunk, and one that
    is longer than ``limit`` is yielded alone. The next step overwrites a
    yielded list, so decide it before asking for the next.
    """
    buffer = np.empty((2, limit + sites), dtype=np.int64)
    filled = rows = 0
    for positions in chunks:
        trial = positions // sites
        edge = np.ones(len(trial) + 1, dtype=bool)  # edge[i]: faults i - 1 and i differ in trial
        np.not_equal(trial[1:], trial[:-1], out=edge[1:-1])
        alone = edge[:-1] & edge[1:]  # the only fault of its trial
        lone += np.bincount(positions[alone] % sites, minlength=sites)
        positions, trial = positions[~alone], trial[~alone]
        n = len(positions)
        if not n:
            continue
        if filled + n > limit and filled:
            yield buffer[0, :filled], buffer[1, :filled], rows
            filled = rows = 0
        renumbered, site = buffer[:, filled : filled + n]
        np.subtract(positions, np.multiply(trial, sites, out=site), out=site)
        # renumber the touched trials rows, rows + 1, ... in order: the positions are sorted
        renumbered[0] = rows
        np.cumsum(trial[1:] != trial[:-1], out=renumbered[1:])
        renumbered[1:] += rows
        filled += n
        rows = int(renumbered[-1]) + 1
    if filled:
        yield buffer[0, :filled], buffer[1, :filled], rows


def _simulate_share(
    kernel: _Kernel,
    table: np.ndarray,
    eps: float,
    seed: int,
    blocks: list[tuple[int, int]],
    corruption: str,
) -> tuple[int, int, int]:
    """(accepted, erroneous_accepted, data_flips_accepted) over one worker's blocks.

    ``blocks`` lists (index, size) pairs. Block i draws from its own Philox
    stream keyed by (seed, i), so the counts do not depend on the worker. A
    trial with one fault takes its counts from ``table`` (:func:`_site_table`),
    by its site; one :func:`_tally` decides each fault list of the trials with
    two or more faults that :func:`_fault_lists` packs into a buffer sized by
    :func:`_chunk_faults` for the whole share. A fault-free trial is accepted
    and not erroneous in both modes and under both conventions.
    """
    sites = table.shape[1]
    mask = (1 << 64) - 1

    def chunks() -> Iterator[np.ndarray]:
        for index, size in blocks:
            rng = np.random.Generator(np.random.Philox(key=((seed & mask) << 64) | (index & mask)))
            yield from _fault_positions(rng, eps, size, sites)

    accepted, erroneous, flips = sum(size for _, size in blocks), 0, 0
    limit = _chunk_faults(eps * sites * accepted)  # no smaller than any block's chunk size
    lone = np.zeros(sites, dtype=np.int64)
    for trial, site, rows in _fault_lists(chunks(), sites, limit, lone):
        acc, err, flip = _tally(kernel, trial, site, rows, corruption)
        accepted += acc - rows
        erroneous += err
        flips += flip
    acc, err, flip = (table @ lone).tolist()
    return accepted + acc - int(lone.sum()), erroneous + err, flips + flip


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
    fault are decided: a trial with one fault by a per-site table built once
    per call at eps > 0 (:func:`_site_table`), the others by verdicts on
    packed fault lists. The RNG is counter-based and keyed by (seed, block index) with a
    fixed block size. ``workers`` bounds the number of shares W: share w takes
    blocks w, w + W, ... in one job and decides their faults in batches of up
    to MAX_CHUNK_FAULTS (:func:`_simulate_share`); the counts are sums over
    trials, so results are bit-identical for any worker count.
    ``workers=None`` means one share per core; W never exceeds the block
    count, _POOL_THREADS or the number of MAX_CHUNK_FAULTS the call expects
    (eps x sites x trials, rounded up), so a share gets a thread only when it
    holds a full fault list. A single share runs on the calling thread and
    builds no pool; two or more run on the process's shared pool
    (:func:`_shared_pool`), each on its own thread: the pool starts threads
    only when it has fewer idle than the call has shares, and keeps them for
    later calls. A forked child builds a new pool: the threads of the one it
    inherited did not survive the fork.
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
    sites = instance.fault_sites
    # at eps 0 no trial holds a fault, so no table entry is read
    table = _site_table(kernel, sites, corruption) if eps else np.zeros((3, sites), np.int64)
    n_blocks = (trials + block_size - 1) // block_size
    blocks = [(i, min(block_size, trials - i * block_size)) for i in range(n_blocks)]
    if workers is None:
        workers = os.cpu_count() or 1
    full_lists = math.ceil(eps * sites * trials / MAX_CHUNK_FAULTS)
    workers = max(1, min(workers, n_blocks, _POOL_THREADS, full_lists))

    def share(first: int) -> tuple[int, int, int]:
        return _simulate_share(kernel, table, eps, seed, blocks[first::workers], corruption)

    if workers == 1:
        results = [share(0)]
    else:
        results = list(_shared_pool().map(share, range(workers)))

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
    of a log-Poisson estimate); zero-event points are dropped. Raises
    InfeasibleError when fewer than two points are left.
    """
    points = []
    for i, eps in enumerate(eps_values):
        report = monte_carlo(instance, eps, trials, seed + i, **kwargs)  # type: ignore[arg-type]
        if report.accepted and report.erroneous_accepted:
            points.append((eps, report.eps_out_total[0], report.erroneous_accepted))
    if len(points) < 2:
        raise InfeasibleError(
            "not enough nonzero points for a slope fit (raise trials or the eps values)"
        )
    x = np.log([p[0] for p in points])
    y = np.log([p[1] for p in points])
    w = np.array([p[2] for p in points], dtype=float)
    slope, intercept = np.polyfit(x, y, 1, w=np.sqrt(w))
    return SlopeFit(float(slope), float(intercept), tuple(points))


def min_undetected_weight(instance: ProtocolInstance, weight_max: int) -> int | None:
    """Lightest accepted fault pattern leaving a data error, or None if > weight_max.

    Singles never change a check's outcome, so a data error v that violates
    check j stays hidden only with an odd number of doubles on j: at least two
    faults per violated check. v plus one double on each violated check has no
    singles, so neither mode rejects it or calls it corrupt. The lightest such
    pattern therefore weighs min over nonzero v of |v| + 2|Hv|, H the outer
    matrix. Data patterns are enumerated by ascending weight up to the first
    weight that cannot win. Refuses, through :func:`gf2.exhaustive_guard`, to
    start a weight whose data patterns would pass the guard.
    """
    a_n = instance.num_data
    cols = instance.outer.matrix.column_bits()
    best: int | None = None
    for weight in range(1, min(weight_max, a_n) + 1):
        if best is not None and weight >= best:
            break
        exhaustive_guard(a_n, weight)
        for support in combinations(range(a_n), weight):
            acc = 0
            for j in support:
                acc ^= cols[j]
            cost = weight + 2 * acc.bit_count()
            if cost <= weight_max and (best is None or cost < best):
                best = cost
    return best

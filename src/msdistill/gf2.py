"""GF(2) linear algebra on bit-packed binary matrices.

Rows are stored as Python integers (bit ``j`` of a row word is column ``j``).
:func:`low_weight_syndromes` is the one enumerator of low-weight supports.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

SYNDROME_CHUNK_ROWS = 1 << 13  # supports per chunk of low_weight_syndromes
EXHAUSTIVE_PATTERN_GUARD = 10**7  # most supports an exhaustive search may enumerate


@dataclass(frozen=True)
class BinMatrix:
    """An immutable binary matrix with row-major bit packing."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("dimensions must be nonnegative")
        if len(self.row_bits) != self.rows:
            raise ValueError("row count does not match packed data")
        mask = (1 << self.cols) - 1
        for r in self.row_bits:
            if r & ~mask:
                raise ValueError("row has bits outside the declared width")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "BinMatrix":
        rows = [list(r) for r in rows]
        n_cols = len(rows[0]) if rows else 0
        packed = []
        for row in rows:
            if len(row) != n_cols:
                raise ValueError("ragged rows")
            word = 0
            for j, entry in enumerate(row):
                entry = int(entry)
                if entry not in (0, 1):
                    raise ValueError("entries must be 0 or 1")
                word |= entry << j
            packed.append(word)
        return cls(len(rows), n_cols, tuple(packed))

    @classmethod
    def from_text(cls, text: str) -> "BinMatrix":
        """Parse the matrix literal format: one row per line, '0'/'1' chars."""
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        return cls.from_rows([[int(c) for c in ln] for ln in lines])

    def to_text(self) -> str:
        return "\n".join(
            "".join(str((r >> j) & 1) for j in range(self.cols))
            for r in self.row_bits
        )

    @classmethod
    def identity(cls, n: int) -> "BinMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    def entry(self, i: int, j: int) -> int:
        return (self.row_bits[i] >> j) & 1

    def column_bits(self) -> tuple[int, ...]:
        """Columns packed as integers (bit ``i`` of column word is row ``i``)."""
        cols = [0] * self.cols
        for i, r in enumerate(self.row_bits):
            while r:
                low = r & -r
                cols[low.bit_length() - 1] |= 1 << i
                r ^= low
        return tuple(cols)

    def transpose(self) -> "BinMatrix":
        return BinMatrix(self.cols, self.rows, self.column_bits())

    def to_array(self) -> np.ndarray:
        width = (self.cols + 7) // 8
        packed = b"".join(r.to_bytes(width, "little") for r in self.row_bits)
        grid = np.frombuffer(packed, dtype=np.uint8).reshape(self.rows, width)
        return np.unpackbits(grid, axis=1, count=self.cols, bitorder="little")


def _eliminate(matrix: BinMatrix) -> tuple[list[int], list[int]]:
    """Gauss-Jordan elimination, lowest column first: (reduced rows, pivot columns).

    Row ``i`` has a one at ``pivots[i]`` and zeros at every other pivot column.
    """
    work, pivots = list(matrix.row_bits), []
    for col in range(matrix.cols):
        rank = len(pivots)
        pivot = None
        for i in range(rank, len(work)):
            if (work[i] >> col) & 1:
                pivot = i
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and (work[i] >> col) & 1:
                work[i] ^= work[rank]
        pivots.append(col)
        if rank + 1 == len(work):
            break  # every row holds a pivot; the remaining columns are free
    return work, pivots


def rank2(matrix: BinMatrix) -> int:
    """GF(2) rank: the pivot count of the Gauss-Jordan elimination."""
    return len(_eliminate(matrix)[1])


def mul2(a: BinMatrix, b: BinMatrix) -> BinMatrix:
    """Matrix product mod 2."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.cols} vs {b.rows}")
    b_cols = b.column_bits()
    out = []
    for r in a.row_bits:
        word = 0
        for j, col in enumerate(b_cols):
            word |= ((r & col).bit_count() & 1) << j
        out.append(word)
    return BinMatrix(a.rows, b.cols, tuple(out))


def is_self_orthogonal(matrix: BinMatrix) -> bool:
    """True iff every pair of rows (a row with itself included) overlaps evenly."""
    return not any(mul2(matrix, matrix.transpose()).row_bits)


def row_space(matrix: BinMatrix) -> BinMatrix:
    """Parity checks of the row space: a basis of ker(matrix), one row per free column.

    A vector lies in the row space exactly when it overlaps every returned row
    evenly, so the span is never built. The name predates this form and stays
    because perfbench's tracer wraps ``gf2.row_space`` by name.
    """
    reduced, pivots = _eliminate(matrix)
    basis = tuple(
        (1 << col) | sum(((row >> col) & 1) << pivot for row, pivot in zip(reduced, pivots))
        for col in sorted(set(range(matrix.cols)).difference(pivots))
    )
    return BinMatrix(len(basis), matrix.cols, basis)


def support_count(n: int, weight_max: int) -> int:
    """Supports of weight 1..weight_max among n columns: what low_weight_syndromes yields."""
    return sum(math.comb(n, j) for j in range(1, weight_max + 1))


def exhaustive_guard(n: int, weight_max: int) -> None:
    """Raise ValueError when the supports up to weight_max pass EXHAUSTIVE_PATTERN_GUARD."""
    count = support_count(n, weight_max)
    if count > EXHAUSTIVE_PATTERN_GUARD:
        raise ValueError(
            f"{count} supports up to weight {weight_max} exceed the exhaustive guard "
            f"({EXHAUSTIVE_PATTERN_GUARD})"
        )


def low_weight_syndromes(
    matrix: BinMatrix, weight_max: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every support of weight 1..weight_max with the XOR of its columns, by weight.

    Yields chunks of at most SYNDROME_CHUNK_ROWS ``(supports, syndromes)`` rows
    in ``itertools.combinations`` order: (rows, w) column indices of the
    smallest unsigned type that holds cols, and (rows, words) uint64, bit
    ``i % 64`` of word ``i // 64`` being matrix row ``i``. Weight w extends the
    stored weight-(w-1) prefixes by every larger index, so memory stays near
    C(cols, w-1) prefixes plus one chunk. Raises ValueError, through
    :func:`exhaustive_guard`, before starting a weight that would take the
    support count past EXHAUSTIVE_PATTERN_GUARD.
    """
    n, words = matrix.cols, (matrix.rows + 63) // 64
    mask = (1 << 64) - 1
    columns = np.array(
        [[(c >> (64 * k)) & mask for k in range(words)] for c in matrix.column_bits()],
        dtype=np.uint64,
    ).reshape(n, words)
    index_type = np.min_scalar_type(n)
    prefixes = np.zeros((1, 0), dtype=index_type)  # the empty support
    prefix_syndromes = np.zeros((1, words), dtype=np.uint64)
    last = np.array([-1])  # kept intp: an unsigned last mixes into float cumsums
    for weight in range(1, min(weight_max, n) + 1):
        exhaustive_guard(n, weight)
        counts = n - 1 - last  # extensions of each prefix by a larger index
        ends = np.cumsum(counts)
        total, keep = int(ends[-1]), weight < weight_max
        level, level_syndromes = [], []
        for start in range(0, total, SYNDROME_CHUNK_ROWS):
            flat = np.arange(start, min(start + SYNDROME_CHUNK_ROWS, total))
            parent = np.searchsorted(ends, flat, side="right")
            index = last[parent] + 1 + flat - (ends[parent] - counts[parent])
            supports = np.column_stack((prefixes[parent], index.astype(index_type)))
            syndromes = prefix_syndromes[parent] ^ columns[index]
            if keep:
                level.append(supports)
                level_syndromes.append(syndromes)
            yield supports, syndromes
        if keep:
            prefixes = np.concatenate(level)
            prefix_syndromes = np.concatenate(level_syndromes)
            last = prefixes[:, -1].astype(np.intp)

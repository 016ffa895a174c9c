import numpy as np
import pytest
from conftest import oracle_syndromes
from hypothesis import example, given, settings
from hypothesis import strategies as st
from strategies import bin_matrices, random_matrix

import msdistill.gf2 as gf2
from msdistill.gf2 import (
    BinMatrix,
    is_self_orthogonal,
    low_weight_syndromes,
    mul2,
    rank2,
    row_space,
    syndrome,
)
from msdistill.inner_codes import STEANE

STEANE_CHECK = STEANE.check


class TestBinMatrix:
    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError):
            BinMatrix(1, 2, (4,))

    def test_entries_must_be_binary(self):
        with pytest.raises(ValueError):
            BinMatrix.from_rows([[0, 2]])

    def test_text_round_trip(self):
        text = "0001111\n0110011\n1010101"
        assert BinMatrix.from_text(text).to_text() == text

    def test_array_round_trip(self):
        arr = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
        assert np.array_equal(BinMatrix.from_array(arr).to_array(), arr)

    @given(bin_matrices())
    def test_transpose_involution(self, a):
        assert a.transpose().transpose() == a

    @given(bin_matrices(max_rows=6, max_cols=40))
    def test_to_array_matches_entries(self, a):
        arr = a.to_array()
        assert arr.shape == (a.rows, a.cols) and arr.dtype == np.uint8
        for i in range(a.rows):
            for j in range(a.cols):
                assert arr[i, j] == a.entry(i, j)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (3, 0), (4, 13), (5, 64), (2, 71)])
    def test_to_array_shapes(self, shape):
        rows, cols = shape
        rng = np.random.default_rng(rows * 100 + cols)
        arr = rng.integers(0, 2, size=shape, dtype=np.uint8)
        matrix = BinMatrix(rows, cols, tuple(
            sum(int(bit) << j for j, bit in enumerate(row)) for row in arr
        ))
        assert np.array_equal(matrix.to_array(), arr)
        assert matrix.to_array().shape == shape


class TestRank:
    def test_zero_matrix(self):
        assert rank2(BinMatrix.zeros(3, 3)) == 0

    def test_identity(self):
        assert rank2(BinMatrix.identity(3)) == 3

    def test_steane_check(self):
        assert rank2(STEANE_CHECK) == 3

    @given(bin_matrices())
    def test_rank_equals_transpose_rank(self, a):
        assert rank2(a) == rank2(a.transpose())

    @given(bin_matrices())
    def test_rank_bounds(self, a):
        assert 0 <= rank2(a) <= min(a.rows, a.cols)


class TestMul2:
    def test_identity_is_neutral(self):
        assert mul2(STEANE_CHECK, BinMatrix.identity(7)) == STEANE_CHECK

    def test_steane_self_product_vanishes(self):
        product = mul2(STEANE_CHECK, STEANE_CHECK.transpose())
        assert product == BinMatrix.zeros(3, 3)

    def test_parity_product(self):
        a = BinMatrix.from_rows([[1, 1]])
        b = BinMatrix.from_rows([[1], [1]])
        assert mul2(a, b) == BinMatrix.zeros(1, 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mul2(BinMatrix.identity(2), BinMatrix.identity(3))


class TestSelfOrthogonality:
    def test_steane(self):
        assert is_self_orthogonal(STEANE_CHECK)

    def test_odd_self_overlap(self):
        assert not is_self_orthogonal(BinMatrix.from_rows([[1, 0]]))

    def test_empty_matrix_vacuous(self):
        assert is_self_orthogonal(BinMatrix.zeros(0, 5))

    @given(bin_matrices())
    @settings(max_examples=150)
    def test_matches_pairwise_overlap_definition(self, a):
        brute = all(
            (ri & rj).bit_count() % 2 == 0
            for i, ri in enumerate(a.row_bits)
            for rj in a.row_bits[i:]
        )
        assert is_self_orthogonal(a) == brute


class TestSyndrome:
    def test_zero_error(self):
        assert syndrome(STEANE_CHECK, 0) == 0

    def test_single_error_reads_column(self):
        expected = 0
        for i in range(3):
            expected |= STEANE_CHECK.entry(i, 0) << i
        assert syndrome(STEANE_CHECK, 1) == expected

    def test_rows_lie_in_kernel(self):
        for row in STEANE_CHECK.row_bits:
            assert syndrome(STEANE_CHECK, row) == 0

    def test_length_guard(self):
        with pytest.raises(ValueError):
            syndrome(STEANE_CHECK, 1 << 7)

    @given(bin_matrices(), st.integers(0), st.integers(0))
    def test_linearity(self, a, e1, e2):
        mask = (1 << a.cols) - 1
        e1 &= mask
        e2 &= mask
        assert syndrome(a, e1 ^ e2) == syndrome(a, e1) ^ syndrome(a, e2)


def test_row_space_size_matches_rank():
    assert len(row_space(STEANE_CHECK)) == 2 ** rank2(STEANE_CHECK)


def unpacked(matrix, weight_max):
    """The generator's chunks as (support, packed syndrome) pairs, checking each chunk's shape."""
    out = []
    for supports, syndromes in low_weight_syndromes(matrix, weight_max):
        assert 0 < len(supports) <= gf2.SYNDROME_CHUNK_ROWS
        assert syndromes.shape == (len(supports), (matrix.rows + 63) // 64)
        assert syndromes.dtype == np.uint64
        for support, words in zip(supports.tolist(), syndromes.tolist()):
            out.append((tuple(support), sum(w << (64 * k) for k, w in enumerate(words))))
    return out


class TestLowWeightSyndromes:
    """Supports come in combinations order, each with the XOR of its columns."""

    @settings(deadline=None, max_examples=60)
    @given(bin_matrices(max_rows=12, max_cols=12), st.integers(0, 5))
    @example(random_matrix(70, 10, seed=1), 3)  # more than one syndrome word
    @example(random_matrix(5, 40, seed=2), 3)  # C(40, 3) = 9880 rows, two chunks
    def test_matches_combinations(self, matrix, weight_max):
        assert unpacked(matrix, weight_max) == oracle_syndromes(matrix, weight_max)

    @pytest.mark.parametrize("chunk_rows", [1, 7, 64])
    def test_chunk_boundaries_inside_a_prefix(self, monkeypatch, chunk_rows):
        # small chunks cut the extensions of one prefix at every position
        monkeypatch.setattr(gf2, "SYNDROME_CHUNK_ROWS", chunk_rows)
        matrix = random_matrix(67, 13, seed=3)
        assert unpacked(matrix, 4) == oracle_syndromes(matrix, 4)

    def test_weight_beyond_the_width(self):
        matrix = random_matrix(3, 4, seed=4)
        assert [s for s, _ in unpacked(matrix, 9)][-1] == (0, 1, 2, 3)
        assert unpacked(matrix, 0) == []
        assert unpacked(BinMatrix.zeros(2, 0), 3) == []

import numpy as np
import pytest
from conftest import oracle_span, oracle_syndromes
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
        assert np.array_equal(BinMatrix.from_rows(arr).to_array(), arr)

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
        assert rank2(BinMatrix(3, 3, (0,) * 3)) == 0

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
        assert product == BinMatrix(3, 3, (0,) * 3)

    def test_parity_product(self):
        a = BinMatrix.from_rows([[1, 1]])
        b = BinMatrix.from_rows([[1], [1]])
        assert mul2(a, b) == BinMatrix(1, 1, (0,))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mul2(BinMatrix.identity(2), BinMatrix.identity(3))


class TestSelfOrthogonality:
    def test_steane(self):
        assert is_self_orthogonal(STEANE_CHECK)

    def test_odd_self_overlap(self):
        assert not is_self_orthogonal(BinMatrix.from_rows([[1, 0]]))

    def test_empty_matrix_vacuous(self):
        assert is_self_orthogonal(BinMatrix(0, 5, ()))

    @given(bin_matrices())
    @settings(max_examples=150)
    def test_matches_pairwise_overlap_definition(self, a):
        brute = all(
            (ri & rj).bit_count() % 2 == 0
            for i, ri in enumerate(a.row_bits)
            for rj in a.row_bits[i:]
        )
        assert is_self_orthogonal(a) == brute


@settings(max_examples=150)
@given(bin_matrices(max_rows=8, max_cols=10))
def test_row_space_parity_checks_decide_membership(matrix):
    checks = row_space(matrix)
    assert checks.cols == matrix.cols
    assert checks.rows == matrix.cols - rank2(matrix)
    assert rank2(checks) == checks.rows  # the rows are independent
    span = oracle_span(matrix)
    for v in range(1 << matrix.cols):
        even = all((row & v).bit_count() % 2 == 0 for row in checks.row_bits)
        assert even == (v in span)


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
        assert unpacked(BinMatrix(2, 0, (0,) * 2), 3) == []

    def test_guard_refuses_the_weight_that_passes_it(self):
        # weights 1..5 of 60 columns take 5,985,197 supports; weight 6 would pass 10^7
        weights = []
        message = r"^56049057 supports up to weight 6 exceed the exhaustive guard \(10000000\)$"
        with pytest.raises(ValueError, match=message):
            for supports, _ in low_weight_syndromes(BinMatrix.identity(60), 6):
                if not weights or weights[-1] != supports.shape[1]:
                    weights.append(supports.shape[1])
        assert weights == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("cols, index_type", [(255, np.uint8), (256, np.uint16)])
    def test_supports_use_the_smallest_index_type(self, cols, index_type):
        matrix = random_matrix(3, cols, seed=5)
        assert next(low_weight_syndromes(matrix, 1))[0].dtype == index_type
        assert unpacked(matrix, 2) == oracle_syndromes(matrix, 2)

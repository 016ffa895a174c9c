import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msdistill.gf2 import (
    BinMatrix,
    is_self_orthogonal,
    mul2,
    rank2,
    row_space,
    syndrome,
    syndrome_vec,
)
from msdistill.inner_codes import STEANE

STEANE_CHECK = STEANE.check


@st.composite
def bin_matrices(draw, max_rows=8, max_cols=16):
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    bits = draw(
        st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows)
    )
    return BinMatrix(rows, cols, tuple(bits))


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
        with pytest.raises(ValueError):
            syndrome_vec(STEANE_CHECK, [0] * 6)

    @given(bin_matrices(), st.integers(0), st.integers(0))
    def test_linearity(self, a, e1, e2):
        mask = (1 << a.cols) - 1
        e1 &= mask
        e2 &= mask
        assert syndrome(a, e1 ^ e2) == syndrome(a, e1) ^ syndrome(a, e2)

    def test_vector_wrapper(self):
        assert syndrome_vec(STEANE_CHECK, [1, 0, 0, 0, 0, 0, 0]) == [
            STEANE_CHECK.entry(i, 0) for i in range(3)
        ]


def test_row_space_size_matches_rank():
    assert len(row_space(STEANE_CHECK)) == 2 ** rank2(STEANE_CHECK)

"""Random binary matrices for property tests."""
import numpy as np
from hypothesis import strategies as st

from msdistill.gf2 import BinMatrix


@st.composite
def bin_matrices(draw, max_rows=8, max_cols=16):
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    bits = draw(
        st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows)
    )
    return BinMatrix(rows, cols, tuple(bits))


def random_matrix(rows: int, cols: int, seed: int) -> BinMatrix:
    rng = np.random.default_rng(seed)
    return BinMatrix.from_array(rng.integers(0, 2, size=(rows, cols)))

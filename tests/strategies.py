"""Random binary matrices and JSON documents for property tests."""
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
    return BinMatrix.from_rows(rng.integers(0, 2, size=(rows, cols)))


# any code point, with quotes, backslashes, control characters, non-ASCII text and lone
# surrogates drawn often enough to be seen (characters() leaves surrogates out unless asked)
json_text = st.text(st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé \U000103ff\U0001f600'),
    st.characters(categories=["Cs"]),
    st.characters(),
), max_size=8)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(1 << 64, 1 << 200) | st.integers(-(1 << 200), -(1 << 64)),  # past 64 bits
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e308, float("nan"), float("inf"), float("-inf")]),
    json_text,
)


def _containers(children):
    """A list, tuple or dict of up to three children; a dict's repeated keys keep one entry.

    Dicts are built from (key, value) pairs rather than drawn with unique keys,
    which would retry draws whose keys collide.
    """
    items = st.lists(children, max_size=3)
    pairs = st.lists(st.tuples(json_text, children), max_size=3)
    return st.one_of(items, items.map(tuple), pairs.map(dict))


# trees up to two containers deep, built level by level: no draw is retried for size
json_trees = st.one_of(json_scalars, _containers(json_scalars | _containers(json_scalars)))


def _around(children):
    """A list, tuple or dict holding one drawn child among a few other trees."""
    rest = st.lists(json_trees, max_size=2)
    return st.one_of(
        st.builds(lambda child, rest: [*rest, child], children, rest),
        st.builds(lambda child, rest: (child, *rest), children, rest),
        st.builds(lambda key, child, rest: {**dict(rest), key: child},
                  json_text, children, st.lists(st.tuples(json_text, json_trees), max_size=2)),
    )


# documents at least four containers deep, with empty containers among the trees
json_values = _around(_around(_around(_around(json_trees))))

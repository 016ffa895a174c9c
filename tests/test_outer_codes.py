import hashlib
import math
import random

import pytest
from conftest import oracle_girth, oracle_peg_attempt, oracle_sensitivity
from hypothesis import example, given, settings
from hypothesis import strategies as st
from strategies import bin_matrices, random_matrix

from msdistill.gf2 import BinMatrix
from msdistill.inner_codes import CssCodeParams
from msdistill.outer_codes import (
    INFINITE_GIRTH,
    ConstructionError,
    OuterCode,
    _peg_attempt,
    _replay_stream,
    build_biregular,
    check_sensitivity,
    girth,
    outer_size_for,
)


class TestBuildBiregular:
    def test_degree_one_gives_permutation(self):
        code = build_biregular(4, 1, 1, 4, seed=0)
        assert code.degree_audit()
        assert sorted(code.matrix.row_bits) == [1, 2, 4, 8]
        assert girth(code) == INFINITE_GIRTH

    def test_nine_by_nine_girth_six(self):
        code = build_biregular(9, 3, 3, 6, seed=7)
        assert (code.num_checks, code.num_bits) == (9, 9)
        assert code.degree_audit()
        # a (3,3)-biregular graph on 9+9 vertices cannot reach girth 8
        assert girth(code) == 6

    def test_infeasible_girth_reports_best(self):
        # (2,2)-biregular on 4+4 vertices is a cycle cover; girth 10 would
        # need a 10-cycle, which 8 vertices cannot host
        with pytest.raises(ConstructionError) as excinfo:
            build_biregular(4, 2, 2, 10, seed=1, max_attempts=10)
        assert excinfo.value.best_girth is not None
        assert excinfo.value.best_girth < 10

    def test_divisibility_guard(self):
        with pytest.raises(ValueError):
            build_biregular(5, 3, 2, 4, seed=0)

    def test_girth_target_guard(self):
        with pytest.raises(ValueError):
            build_biregular(4, 1, 1, 5, seed=0)

    def test_edge_identity(self):
        for a_n, w, s in [(12, 3, 1), (9, 3, 3), (8, 4, 2)]:
            code = build_biregular(a_n, w, s, 4, seed=3)
            assert code.num_checks * w == a_n * s

    def test_determinism(self):
        first = build_biregular(12, 3, 2, 6, seed=11)
        second = build_biregular(12, 3, 2, 6, seed=11)
        assert first.matrix == second.matrix
        different = build_biregular(12, 3, 2, 6, seed=12)
        # not guaranteed distinct, but the pair must at least be valid
        assert different.degree_audit()


@st.composite
def peg_shapes(draw):
    """(a_n, w, s) with w | a_n * s, up to a_n = 48."""
    w = draw(st.integers(1, 6))
    s = draw(st.integers(1, 6))
    step = w // math.gcd(w, s)
    return step * draw(st.integers(1, 48 // step)), w, s


class TestPegMatchesOracle:
    """The bulk-draw PEG builds the tuple-list PEG's matrix, and knows its girth."""

    def test_replayed_stream_is_random_random(self):
        for seed in (0, 1, 1_000_003 * 7 + 3):
            rng = random.Random(seed)
            replay = _replay_stream(random.Random(seed)).random(2000).tolist()
            assert replay == [rng.random() for _ in range(2000)]

    @settings(deadline=None, max_examples=120)
    @given(peg_shapes(), st.integers(0, 10**6), st.integers(0, 40))
    # stuck: s = 3 edges per bit but only two checks
    @example((2, 3, 3), 0, 0)
    @example((60, 3, 3), 1, 0)
    def test_same_matrix_and_derived_girth(self, shape, seed, attempt):
        a_n, w, s = shape
        m = a_n * s // w
        stream = seed * 1_000_003 + attempt
        expected = oracle_peg_attempt(a_n, m, w, s, random.Random(stream))
        built = _peg_attempt(a_n, m, w, s, random.Random(stream))
        if expected is None:
            assert built is None
            return
        matrix, tanner_girth = built
        assert matrix == expected
        assert tanner_girth == oracle_girth(matrix)


class TestPinnedSchedules:
    """Outputs recorded before PEG drew its tie-breaks in bulk; a seed's code must not change."""

    @pytest.mark.parametrize("a_n, digest", [
        (9, "8a479ec582ea05a8"),
        (18, "d535ea38db299aa9"),
        (60, "ca7a454587a964dc"),
        (240, "14aceeb7ddbab30a"),
        (600, "3f38ffe98ba8e633"),
    ])
    def test_schedule_text(self, a_n, digest):
        text = build_biregular(a_n, 3, 3, 6, 1).to_text()
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_construction_error_message(self):
        with pytest.raises(ConstructionError) as excinfo:
            build_biregular(4, 2, 2, 10, seed=1, max_attempts=10)
        assert str(excinfo.value) == (
            "no (2,2)-biregular graph with girth >= 10 found for a_n=4 "
            "within 10 attempts (best girth: 8)"
        )
        assert excinfo.value.best_girth == 8


class TestGirth:
    def test_identity_is_forest(self):
        assert girth(BinMatrix.identity(5)) == INFINITE_GIRTH

    def test_k22(self):
        assert girth(BinMatrix.from_rows([[1, 1], [1, 1]])) == 4

    def test_six_cycle(self):
        # three bits and three checks in a single 6-cycle
        matrix = BinMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert girth(matrix) == 6

    @pytest.mark.parametrize("a_n, expected", [(9, 6), (18, 6), (60, 8), (240, 10), (600, 8)])
    def test_pinned_schedules(self, a_n, expected):
        matrix = build_biregular(a_n, 3, 3, 6, 1).matrix
        assert girth(matrix) == oracle_girth(matrix) == expected


def sparse_rows(rng: random.Random, n_rows: int, cols: int) -> list[int]:
    """Packed rows of one to three distinct random columns each, capped at cols."""
    weights = [min(cols, rng.randint(1, 3)) for _ in range(n_rows)]
    return [sum(1 << j for j in rng.sample(range(cols), k)) for k in weights]


@st.composite
def tanner_matrices(draw):
    """bin_matrices up to 12 x 24, some made sparse, some with a row or a column repeated."""
    matrix = draw(bin_matrices(max_rows=12, max_cols=24))
    rows, cols = list(matrix.row_bits), matrix.cols
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32)))
        rows = sparse_rows(rng, len(rows), cols)
    if rows and draw(st.integers(0, 3)) == 0:
        rows.append(rows[draw(st.integers(0, len(rows) - 1))])
    if cols and draw(st.integers(0, 3)) == 0:
        j = draw(st.integers(0, cols - 1))
        rows = [r | ((r >> j) & 1) << cols for r in rows]
        cols += 1
    return BinMatrix(len(rows), cols, tuple(rows))


class TestGirthMatchesOracle:
    """The bitmask BFS from each check finds the dict BFS's girth."""

    @settings(deadline=None, max_examples=300)
    @given(tanner_matrices())
    @example(BinMatrix(0, 24, ()))
    @example(BinMatrix(12, 0, (0,) * 12))
    @example(BinMatrix.from_rows([[1, 1, 0], [1, 1, 0]]))  # repeated rows
    @example(BinMatrix.from_rows([[1, 1, 0], [1, 1, 1]]))  # repeated columns
    def test_random_matrices(self, matrix):
        assert girth(matrix) == oracle_girth(matrix)

    def test_sparse_graphs_reach_long_cycles(self):
        rng = random.Random(0)
        found = set()
        for _ in range(500):
            matrix = BinMatrix(12, 24, tuple(sparse_rows(rng, 12, 24)))
            g = girth(matrix)
            assert g == oracle_girth(matrix)
            found.add(g)
        assert {4, 6, 8, 10, INFINITE_GIRTH} <= found


class TestSensitivity:
    def test_identity_weight_one(self):
        ok, witness = check_sensitivity(BinMatrix.identity(4), 1, 1)
        assert ok and witness is None

    def test_identity_fails_higher_requirement(self):
        ok, witness = check_sensitivity(BinMatrix.identity(4), 2, 2)
        assert not ok
        assert witness.weight == 1 and witness.violated_checks == 1

    def test_nine_by_nine_passes(self):
        code = build_biregular(9, 3, 3, 6, seed=7)
        ok, _ = check_sensitivity(code.matrix, 2, 2)
        assert ok

    def test_witness_is_genuine(self):
        matrix = BinMatrix.from_rows([[1, 1, 0], [0, 0, 1]])
        ok, witness = check_sensitivity(matrix, 2, 2)
        assert not ok
        cols = matrix.column_bits()
        acc = 0
        for j in range(matrix.cols):
            if (witness.pattern_bits >> j) & 1:
                acc ^= cols[j]
        assert witness.weight <= 2
        assert acc.bit_count() == witness.violated_checks < 2

    def test_exhaustive_guard(self):
        # refused before weight 1, whose first pattern would already be a witness
        message = r"^20833337500 supports up to weight 3 exceed the exhaustive guard \(10000000\)$"
        with pytest.raises(ValueError, match=message):
            check_sensitivity(BinMatrix(2, 5000, (0,) * 2), 3, 1)


def assert_matches_oracle(matrix, d_tilde, s_req):
    ok, witness = check_sensitivity(matrix, d_tilde, s_req)
    expected_ok, expected_witness = oracle_sensitivity(matrix, d_tilde, s_req)
    assert ok == expected_ok
    if witness is None:
        assert expected_witness is None
    else:
        assert (witness.pattern_bits, witness.weight, witness.violated_checks) == expected_witness


class TestSensitivityMatchesScalarLoop:
    """Same verdict and same witness as the scalar exhaustive loop."""

    @settings(deadline=None, max_examples=80)
    @given(bin_matrices(max_rows=9, max_cols=10), st.integers(0, 4), st.integers(0, 5))
    # the checks all sit in rows 64-69, the second syndrome word
    @example(BinMatrix(70, 8, (0,) * 64 + random_matrix(6, 8, seed=1).row_bits), 3, 1)
    def test_random_matrices(self, matrix, d_tilde, s_req):
        assert_matches_oracle(matrix, d_tilde, s_req)

    @pytest.mark.parametrize("d_tilde,s_req", [(2, 2), (3, 2), (2, 3), (3, 4)])
    def test_nine_by_nine(self, d_tilde, s_req):
        assert_matches_oracle(build_biregular(9, 3, 3, 6, seed=7).matrix, d_tilde, s_req)

    @pytest.mark.parametrize("d_tilde,s_req", [(3, 3), (2, 5), (3, 4)])
    def test_sixty_bit_schedule(self, d_tilde, s_req):
        assert_matches_oracle(build_biregular(60, 3, 3, 6, seed=1).matrix, d_tilde, s_req)


class TestGirthSensitivityLink:
    """Empirical link between girth and sensitivity at desk scale.

    For d=5 a girth of exactly 2(d-1)=8 still admits an undetected weight-4
    pattern (a single 8-cycle), so the d=5 instance is built at girth 10;
    sensitivity itself is always checked directly.
    """

    def test_d3_instances(self):
        # d=3 needs s=1; with w >= 2 two states can share their only check and
        # cancel, so the link only holds in the w=1 regime the shipped
        # single-logical-qubit codes occupy
        for a_n in (6, 9, 12):
            code = build_biregular(a_n, 1, 1, 4, seed=a_n)
            ok, _ = check_sensitivity(code.matrix, 2, 1)
            assert ok

    def test_d5_instance(self):
        code = build_biregular(24, 3, 2, 10, seed=5)
        ok, _ = check_sensitivity(code.matrix, 4, 2)
        assert ok


class TestOuterSize:
    def test_steane_scale_four(self):
        assert outer_size_for(CssCodeParams(7, 1, 3), 4) == (4, 4)

    def test_headline_code_scale_one(self):
        assert outer_size_for(CssCodeParams(8104, 8002, 9), 1) == (8002, 4)

    def test_design_scale(self):
        params = CssCodeParams(149, 117, 5)
        a_n, m = outer_size_for(params, 117**5)
        assert (a_n, m) == (117**6, 2 * 117**5)

    def test_guards(self):
        with pytest.raises(ValueError):
            outer_size_for(CssCodeParams(8, 2, 4), 1)
        with pytest.raises(ValueError):
            outer_size_for(CssCodeParams(7, 1, 3), 0)


def test_serialization_round_trip():
    code = build_biregular(9, 3, 3, 6, seed=7)
    text = code.to_text()
    back = OuterCode.from_text(text)
    assert back.matrix == code.matrix
    assert (back.check_degree, back.bit_degree) == (3, 3)
    assert text.splitlines()[0] == "3 3 6"


def test_forest_girth_serializes_as_inf():
    code = OuterCode(BinMatrix.identity(3), 1, 1)
    assert code.to_text().splitlines()[0] == "1 1 inf"

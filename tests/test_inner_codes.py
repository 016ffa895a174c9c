import math
import tracemalloc

import numpy as np
import pytest
from conftest import GOLAY_CHECK, oracle_min_distance
from hypothesis import given, settings
from hypothesis import strategies as st

from msdistill.gf2 import (
    EXHAUSTIVE_PATTERN_GUARD, BinMatrix, is_self_orthogonal, rank2, support_count,
)
from msdistill.inner_codes import (
    RM15,
    STEANE,
    CssCodeParams,
    WeaklySelfDualCode,
    binary_entropy,
    distance_family,
    gv_params,
    ln_rule_distance,
    load_named_code,
    min_distance_css,
    validate_code,
)


# self-orthogonal matrices whose row combinations stay self-orthogonal; the
# last is the self-dual [8,4,4] extended Hamming code
SELF_ORTHOGONAL_BASES = (
    STEANE.check, RM15.check, BinMatrix.from_text("11110000\n00111100\n00001111\n01010101"),
)

@st.composite
def self_orthogonal_matrices(draw):
    """Random row combinations of a base, columns permuted, or random words kept greedily."""
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        base = draw(st.sampled_from(SELF_ORTHOGONAL_BASES))
        k = base.rows
        picks = draw(st.lists(st.integers(1, (1 << k) - 1), min_size=k, max_size=k))
        combos = np.array([[(p >> i) & 1 for i in range(k)] for p in picks])
        combined = combos @ base.to_array() % 2
        return BinMatrix.from_rows(combined[:, rng.sample(range(base.cols), base.cols)])
    cols = draw(st.integers(1, 12))
    rows: list[int] = []
    for _ in range(draw(st.integers(0, 64))):
        word = rng.getrandbits(cols)
        if all((word & r).bit_count() % 2 == 0 for r in rows + [word]):
            rows.append(word)
    return BinMatrix(len(rows), cols, tuple(rows))


class TestBinaryEntropy:
    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_small_ratio(self):
        # 0.0125009...; the value that matters downstream is the floor
        # 8104*(1-h) = 8002, which is insensitive to the 6th decimal
        assert binary_entropy(9 / 8104) == pytest.approx(0.012497, abs=5e-6)

    def test_baseline_ratio(self):
        assert binary_entropy(3 / 76) == pytest.approx(0.23988, abs=1e-5)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)


class TestGvParams:
    def test_headline_code(self):
        assert gv_params(8104) == CssCodeParams(8104, 8002, 9)

    def test_small_code_explicit_distance(self):
        assert gv_params(149, 5) == CssCodeParams(149, 117, 5)

    def test_double_entropy_variant(self):
        assert gv_params(8104, entropy_variant="double") == CssCodeParams(8104, 7901, 9)

    def test_distance_rule_is_natural_log(self):
        # base-2 logs would give d=11 here; only ln reproduces d=9
        assert ln_rule_distance(8104) == 9

    @given(st.integers(25, 10**6))
    def test_ln_rule_bracketing(self, n):
        d = ln_rule_distance(n)
        assert d % 2 == 1
        assert d <= math.log(n) < d + 2

    @given(st.integers(200, 5000))
    @settings(max_examples=60)
    def test_k_monotone_in_n_for_fixed_d(self, n):
        assert gv_params(n, 5).k_q <= gv_params(n + 1, 5).k_q

    @given(st.integers(200, 5000))
    @settings(max_examples=60)
    def test_floor_slack(self, n):
        p = gv_params(n, 5)
        assert p.k_q / p.n_q + binary_entropy(p.d_q / p.n_q) <= 1 + 1 / p.n_q

    def test_guards(self):
        with pytest.raises(ValueError):
            gv_params(3)
        with pytest.raises(ValueError):
            gv_params(20, 11)  # d >= n/2
        with pytest.raises(ValueError):
            gv_params(12, 5)  # k would be <= 0


class TestDistanceFamily:
    def test_contains_headline_codes(self):
        family = distance_family(10**4)
        assert CssCodeParams(149, 117, 5) in family
        assert CssCodeParams(8104, 8002, 9) in family

    def test_each_member_is_smallest_for_its_distance(self):
        for params in distance_family(10**4):
            assert ln_rule_distance(params.n_q) == params.d_q
            assert ln_rule_distance(params.n_q - 1) < params.d_q


class TestValidateCode:
    def test_steane_passes(self):
        report = validate_code(STEANE)
        assert report.all_passed
        assert report.measured_distance == 3

    def test_rm15_passes(self):
        report = validate_code(RM15)
        assert report.all_passed
        assert report.measured_distance == 3

    def test_flipped_bit_breaks_orthogonality(self):
        rows = list(STEANE.check.row_bits)
        rows[0] ^= 1 << 1
        broken = WeaklySelfDualCode(STEANE.params, BinMatrix(3, 7, tuple(rows)))
        report = validate_code(broken)
        assert not report.self_orthogonal
        assert not report.all_passed

    def test_large_code_marked_unverified(self):
        # identity(60) has no logical; its search crosses the guard at weight 6
        code = WeaklySelfDualCode(CssCodeParams(60, 2, 3), BinMatrix.identity(60))
        report = validate_code(code)
        assert report.distance_ok is None
        assert report.measured_distance is None
        assert any("unverified" in note for note in report.notes)

    def test_golay_verified_beyond_twenty_columns(self):
        report = validate_code(WeaklySelfDualCode(CssCodeParams(23, 1, 7), GOLAY_CHECK))
        assert report.all_passed
        assert report.measured_distance == 7


class TestMinDistance:
    def test_steane(self):
        assert min_distance_css(STEANE.check) == 3

    def test_rm15(self):
        assert min_distance_css(RM15.check) == 3

    def test_no_logical_sentinel(self):
        # [1 1]: the only zero-syndrome vector is the row itself -> sentinel
        assert min_distance_css(BinMatrix.from_rows([[1, 1]])) == 3

    def test_size_guard(self):
        # weights 1..5 of 60 columns take 5,985,197 supports; weight 6 would pass 10^7
        assert support_count(60, 5) <= EXHAUSTIVE_PATTERN_GUARD < support_count(60, 6)
        message = r"^56049057 supports up to weight 6 exceed the exhaustive guard \(10000000\)$"
        with pytest.raises(ValueError, match=message):
            min_distance_css(BinMatrix.identity(60))

    def test_enumeration_memory_stays_small(self):
        # every support of 20 columns: the weight-10 prefixes held as intp peaked at 49 MB
        tracemalloc.start()
        try:
            assert min_distance_css(BinMatrix.identity(20)) == 21
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24e6

    def test_golay(self):
        assert is_self_orthogonal(GOLAY_CHECK)
        assert rank2(GOLAY_CHECK) == 11
        assert min_distance_css(GOLAY_CHECK) == 7

    @pytest.mark.parametrize("code", [STEANE, RM15], ids=["steane", "rm15"])
    def test_library_codes_match_brute_force(self, code):
        assert min_distance_css(code.check) == oracle_min_distance(code.check)

    @settings(deadline=None, max_examples=60)
    @given(self_orthogonal_matrices())
    def test_matches_brute_force(self, check):
        assert is_self_orthogonal(check)
        assert min_distance_css(check) == oracle_min_distance(check)


class TestCodeLibrary:
    def test_named_lookup(self):
        assert load_named_code("STEANE") is STEANE
        assert load_named_code("rm15") is RM15

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_named_code("golay")

    def test_params_guards(self):
        with pytest.raises(ValueError):
            CssCodeParams(7, 7, 3)

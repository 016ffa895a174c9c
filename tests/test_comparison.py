import math
from fractions import Fraction

import pytest

from msdistill import InfeasibleError
from msdistill.analytics import predistill_chain
from msdistill.comparison import (
    PUBLISHED_MIN_BLOCK_LENGTH,
    ComparisonRow,
    figure2_dataset,
    qag_baseline_rate,
    qag_catalyst_rounds,
    qag_params,
    qag_rate,
    qag_threshold,
)
from msdistill.pipeline import ProtocolSpec, evaluate
from msdistill.inner_codes import CssCodeParams


def oracle_base(i: int) -> int:
    """Exact-rational recomputation of the family's base term."""
    if i % 2:
        return int(33 * 32 ** (i - 1) - 34 * Fraction(32) ** ((i - 1) // 2) + 1)
    return int(33 * 32 ** (i - 1) - 561 * Fraction(32) ** (i // 2 - 1) + 1)


class TestQagParams:
    def test_smallest_instance(self):
        p = qag_params(3)
        assert p.k == 40881
        assert p.decode_radius == 4088
        assert p.n_low == 932089  # the formulas give 932089; the paper prints 932093

    def test_published_block_length_is_the_default(self):
        assert PUBLISHED_MIN_BLOCK_LENGTH == 932093

    def test_even_family(self):
        p = qag_params(4)
        base = oracle_base(4)
        assert base == 33 * 32**3 - 561 * 32 + 1
        assert p.k == (5 * base) // 4

    def test_exact_floors_up_to_eight(self):
        for i in range(3, 9):
            p = qag_params(i)
            base = oracle_base(i)
            assert p.n_low == int(Fraction(114 * base, 4)) - 3
            assert p.n_high == int(Fraction(118 * base, 4)) - 1
            assert p.k == int(Fraction(5 * base, 4))
            assert p.decode_radius == int(Fraction(base, 8))
            assert p.n_low <= p.n_high
            assert p.decode_radius < p.k < p.n_low

    def test_index_guard(self):
        with pytest.raises(ValueError):
            qag_params(2)


class TestThreshold:
    def test_published_value(self):
        threshold = qag_threshold()
        assert threshold == pytest.approx(2.14e-4, rel=0.02)

    def test_fixed_conventions(self):
        # C = 70 and (r+1)/N = 3/76: exponent h(3/76) * 76/3
        ratio = 3 / 76
        entropy = -ratio * math.log2(ratio) - (1 - ratio) * math.log2(1 - ratio)
        assert qag_threshold() == pytest.approx(1 / (70 * 2 ** (entropy / ratio)), rel=1e-12)


class TestCatalystRounds:
    def test_three_rounds_needed(self):
        schedule = qag_catalyst_rounds(0.1, qag_threshold())
        assert schedule.rounds == 3
        assert schedule.eps_pre == pytest.approx(1.18e-7, rel=0.01)
        assert schedule.ratio_to_threshold == pytest.approx(5.5e-4, rel=0.02)

    def test_already_below_threshold(self):
        schedule = qag_catalyst_rounds(1e-6, qag_threshold())
        assert schedule.rounds == 0

    def test_input_guard(self):
        with pytest.raises(ValueError):
            qag_catalyst_rounds(0.0, 1e-4)

    def test_input_above_fifteen_to_one_threshold(self):
        # 0.5 -> 4.375 after one round: the second round's input is not an error rate
        with pytest.raises(InfeasibleError, match="round 2"):
            qag_catalyst_rounds(0.5, qag_threshold())


class TestRate:
    def test_published_headline(self):
        rate, params, schedule = qag_baseline_rate()
        assert schedule.rounds == 3
        assert rate.to_float() == pytest.approx(9.28e-8, rel=0.005)
        assert rate.to_float() == pytest.approx(1 / 10773171, rel=0.005)

    def test_monotone_in_catalyst_rounds(self):
        params = qag_params(3)
        rates = [qag_rate(params, l).to_float() for l in (0, 3, 10, 20)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_uses_published_block_length(self):
        params = qag_params(3)
        expected = (2 * params.k + 1) / (15**3 * 280 * PUBLISHED_MIN_BLOCK_LENGTH + 1)
        assert qag_rate(params, 0).to_float() == pytest.approx(expected, rel=1e-12)
        assert PUBLISHED_MIN_BLOCK_LENGTH != params.n_low

    def test_large_catalyst_limit(self):
        params = qag_params(3)
        rate = qag_rate(params, 30)
        expected = (2 * params.k + 1) / 15**30
        assert rate.log10 == pytest.approx(math.log10(expected), abs=1e-6)

    def test_round_guard(self):
        with pytest.raises(ValueError):
            qag_rate(qag_params(3), -1)


class TestFigure2Dataset:
    def _specs(self):
        code = CssCodeParams(149, 117, 5)
        return [ProtocolSpec(3, code, 117**5)]

    def test_purple_first_round(self):
        rows, _ = figure2_dataset(pre_rounds_max=2)
        first = next(r for r in rows if r.series == "repeated_15to1" and r.label == "1")
        assert 10.0**first.log10_rate == pytest.approx(0.9**15 / 15, rel=1e-9)
        assert 10.0**-first.neg_log10_eps == pytest.approx(0.035, rel=1e-9)

    def test_negative_chain_length_is_refused(self):
        # not read as 0, which would silently drop the repeated 15->1 series
        with pytest.raises(ValueError, match="rounds must be >= 0") as exc_info:
            figure2_dataset(pre_rounds_max=-1)
        assert not isinstance(exc_info.value, InfeasibleError)

    def test_chain_rows_match_predistill_chain(self):
        # one pass of the round loop gives every p the report of its own chain
        rows, _ = figure2_dataset(pre_rounds_max=50)
        chain = [r for r in rows if r.series == "repeated_15to1"]
        assert [r.label for r in chain] == [str(p) for p in range(1, 51)]
        for p, row in enumerate(chain, 1):
            report = predistill_chain(p, 0.1)
            assert row.neg_log10_eps == -report.eps_out.log10
            assert row.log10_rate == report.effective_rate.log10

    def test_blue_rows_pass_through_evaluate(self):
        specs = self._specs()
        rows, _ = figure2_dataset(pipeline_specs=specs)
        blue = next(r for r in rows if r.series == "check_schedule")
        report = evaluate(specs[0])
        assert blue.log10_rate == report.effective_rate.log10
        assert blue.neg_log10_eps == -report.eps_out.log10
        assert blue.label == "(3;1)"

    def test_red_floor_constant(self):
        rows, metadata = figure2_dataset(pipeline_specs=self._specs())
        red = [r for r in rows if r.series == "constant_overhead"]
        assert len(red) >= 2
        assert len({r.log10_rate for r in red}) == 1
        assert 10.0 ** red[0].log10_rate == pytest.approx(9.28e-8, rel=0.005)

    def test_metadata_records_conventions(self):
        _, metadata = figure2_dataset()
        assert metadata["baseline_block_length_published"] == 932093
        assert metadata["baseline_block_length_derived"] == 932089
        assert metadata["baseline_catalyst_rounds"] == 3

    def test_csv_row_format(self):
        row = ComparisonRow("constant_overhead", "floor", 7.0, -7.032364)
        assert row.csv_row() == "constant_overhead,floor,7.000000,-7.032364"

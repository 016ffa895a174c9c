import math
from fractions import Fraction

import pytest

from msdistill.comparison import (
    PUBLISHED_MIN_BLOCK_LENGTH,
    CatalystSchedule,
    ComparisonRow,
    QagParams,
    figure2_dataset,
    qag_baseline_rate,
    qag_catalyst_rounds,
    qag_params,
    qag_rate,
    qag_threshold,
)
from msdistill.pipeline import HadamardStep, PreDistillation, ProtocolSpec, evaluate
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
        threshold = qag_threshold(qag_params(3))
        assert threshold == pytest.approx(2.14e-4, rel=0.02)

    def test_zero_ratio_limit(self):
        assert qag_threshold(qag_params(3), conversion=1.0, ratio=0.0) == 1.0

    def test_half_ratio(self):
        # exponent h(1/2)/(1/2) = 2 -> threshold 1/(4C)
        assert qag_threshold(qag_params(3), conversion=3.0, ratio=0.5) == pytest.approx(
            1 / 12
        )

    def test_guards(self):
        with pytest.raises(ValueError):
            qag_threshold(qag_params(3), conversion=0.0)
        with pytest.raises(ValueError):
            qag_threshold(qag_params(3), ratio=1.5)


class TestCatalystRounds:
    def test_three_rounds_needed(self):
        params = qag_params(3)
        schedule = qag_catalyst_rounds(0.1, params, qag_threshold(params))
        assert schedule.rounds == 3
        assert schedule.eps_pre == pytest.approx(1.18e-7, rel=0.01)
        assert schedule.ratio_to_threshold == pytest.approx(5.5e-4, rel=0.02)

    def test_already_below_threshold(self):
        params = qag_params(3)
        schedule = qag_catalyst_rounds(1e-6, params, qag_threshold(params))
        assert schedule.rounds == 0

    def test_input_guard(self):
        with pytest.raises(ValueError):
            qag_catalyst_rounds(0.0, qag_params(3), 1e-4)


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

    def test_monotone_in_block_length(self):
        params = qag_params(3)
        small = qag_rate(params, 3, block_length=params.n_low)
        large = qag_rate(params, 3, block_length=params.n_low * 10)
        assert large < small

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
        return [
            ProtocolSpec((PreDistillation(3), HadamardStep(code, 117**5)))
        ]

    def test_purple_first_round(self):
        rows, _ = figure2_dataset(pre_rounds_max=2)
        first = next(r for r in rows if r.series == "repeated_15to1" and r.label == "1")
        assert 10.0**first.log10_rate == pytest.approx(0.9**15 / 15, rel=1e-9)
        assert 10.0**-first.neg_log10_eps == pytest.approx(0.035, rel=1e-9)

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

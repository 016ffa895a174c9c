import random

import pytest

from msdistill import InfeasibleError
from msdistill.inner_codes import CssCodeParams, distance_family
from msdistill.logdomain import LogScalar
from msdistill.pipeline import (
    ProtocolSpec,
    default_scale_rule,
    evaluate,
    search_best,
)

BIG_CODE = CssCodeParams(8104, 8002, 9)
SMALL_CODE = CssCodeParams(149, 117, 5)


def spec_for(code: CssCodeParams, pre_rounds: int) -> ProtocolSpec:
    return ProtocolSpec(pre_rounds, code, code.k_q**code.d_q)


class TestEvaluate:
    def test_four_one_rate(self):
        report = evaluate(spec_for(BIG_CODE, 4))
        assert report.label == (4, 1)
        assert 10.0**report.effective_rate.log10 == pytest.approx(2.56e-7, rel=0.03)

    def test_three_one_rate(self):
        report = evaluate(spec_for(SMALL_CODE, 3))
        assert 10.0**report.effective_rate.log10 == pytest.approx(5.7e-6, rel=0.03)

    def test_trajectory_structure(self):
        report = evaluate(spec_for(BIG_CODE, 4))
        pre, check = report.stage_details
        assert (pre.kind, check.kind) == ("pre_distillation", "hadamard_step")
        assert pre.eps_out < LogScalar.coerce(0.1)
        assert check.eps_out < pre.eps_out
        assert report.eps_out == check.eps_out

    def test_rate_never_exceeds_input_ratio(self):
        for spec in (spec_for(BIG_CODE, 4), spec_for(SMALL_CODE, 3)):
            report = evaluate(spec)
            ratio = LogScalar.coerce(1) / report.total_inputs_per_output
            assert not report.effective_rate > ratio

    def test_achieved_convention_collapses_success(self):
        # the pre-distilled error (1.18e-7) is far above the design target, so
        # the physically-faithful convention drives the success probability to 0
        report = evaluate(spec_for(BIG_CODE, 4), success_eps="achieved")
        assert report.success_prob.is_zero() or report.success_prob.log10 < -1e9

    def test_eps0_of_one_is_refused(self):
        # eps0 = 1 is refused before any stage runs, as a plain ValueError
        with pytest.raises(ValueError, match="eps0 must satisfy") as exc_info:
            evaluate(ProtocolSpec(0, BIG_CODE, 1, eps0=1.0))
        assert not isinstance(exc_info.value, InfeasibleError)

    @pytest.mark.parametrize("pre_rounds, message", [
        # at eps0 = 0.2 the fourth 15->1 round gets an input error of about 15.8
        (4, "stage 0: 15->1 round 4: input error must be below 1"),
        # after three rounds the chain delivers that error to the check round
        (3, "stage 1: input error must be below 1"),
    ])
    def test_stage_error_text(self, pre_rounds, message):
        spec = ProtocolSpec(pre_rounds, BIG_CODE, BIG_CODE.k_q**BIG_CODE.d_q, eps0=0.2)
        with pytest.raises(InfeasibleError) as exc_info:
            evaluate(spec)
        assert str(exc_info.value) == message

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            evaluate(spec_for(BIG_CODE, 4), success_eps="hopeful")

    def test_csv_row(self):
        row = evaluate(spec_for(SMALL_CODE, 3)).csv_row()
        label, rate, eps, success = row.split(",")
        assert label == "(3;1)"
        assert float(rate) == pytest.approx(-5.2414, abs=1e-3)
        assert float(eps) < -100
        assert float(success) < 0


class TestSpecValidation:
    def test_even_distance_rejected(self):
        with pytest.raises(ValueError, match="check-schedule stage needs odd distance >= 3"):
            ProtocolSpec(0, CssCodeParams(8, 2, 4), 1)

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError, match="rounds must be >= 0"):
            ProtocolSpec(-1, BIG_CODE, 1)

    def test_rounds_checked_before_distance(self):
        with pytest.raises(ValueError, match="rounds must be >= 0"):
            ProtocolSpec(-1, CssCodeParams(8, 2, 4), 1)

    def test_default_scale_rule(self):
        assert default_scale_rule(SMALL_CODE) == 117**5


class TestSearch:
    FLOOR = LogScalar.from_float(9.28e-8)

    def test_reproduces_headline_code(self):
        candidates = distance_family(10**4)
        spec = search_best(self.FLOOR, candidates, range(7))
        inner = spec.inner
        assert (inner.n_q, inner.k_q, inner.d_q) == (8104, 8002, 9)
        assert evaluate(spec).effective_rate > self.FLOOR

    def test_order_invariance(self):
        candidates = distance_family(10**4)
        baseline = search_best(self.FLOOR, candidates, range(7))
        shuffled = list(candidates)
        random.Random(5).shuffle(shuffled)
        assert search_best(self.FLOOR, shuffled, reversed(range(7))) == baseline

    def test_impossible_floor(self):
        with pytest.raises(ValueError):
            search_best(LogScalar.coerce(1), distance_family(10**4), range(3))

    def test_candidates_above_threshold_are_skipped(self):
        # at eps0 = 0.2 the p = 3 chain crosses threshold before its check round
        candidates = distance_family(10**4)
        below = search_best(self.FLOOR, candidates, range(3), eps0=0.2)
        assert search_best(self.FLOOR, candidates, range(4), eps0=0.2) == below
        with pytest.raises(InfeasibleError, match="input error must be below 1"):
            search_best(self.FLOOR, candidates, [3], eps0=0.2)

    def test_empty_space(self):
        with pytest.raises(ValueError):
            search_best(self.FLOOR, [], range(3))

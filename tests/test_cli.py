import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

import msdistill
from msdistill import __version__, fault_sim
from msdistill.cli import (
    COMMANDS, EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, _json_text, _resolve, build_parser, main,
)
from msdistill.inner_codes import CssCodeParams
from msdistill.pipeline import ProtocolSpec, evaluate
from strategies import json_values


def reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


class TestGvSearch:
    def test_headline_row(self, capsys):
        code, doc = run_json(capsys, ["gv-search", "--n-min", "8104", "--n-max", "8104"])
        assert code == EXIT_OK
        (row,) = doc["results"]
        assert row == {
            "n": 8104,
            "d": 9,
            "k_single": 8002,
            "k_double": 7901,
            "gamma": pytest.approx(1.0051, abs=1e-3),
            "status": "ok",
        }

    def test_empty_range(self, capsys):
        code, doc = run_json(capsys, ["gv-search", "--n-min", "10", "--n-max", "5"])
        assert code == EXIT_OK
        assert doc["results"] == []

    def test_degenerate_n_marked_infeasible(self, capsys):
        code, doc = run_json(capsys, ["gv-search", "--n-min", "3", "--n-max", "3"])
        assert code == EXIT_OK
        (row,) = doc["results"]
        assert row["d"] == 1
        assert row["status"] == "infeasible"

    def test_invalid_range_is_usage_error(self, capsys):
        assert main(["gv-search", "--n-min", "-5", "--n-max", "5"]) == EXIT_USAGE


class TestValidateCode:
    def test_library_code(self, capsys):
        code, doc = run_json(capsys, ["validate-code", "--code", "steane"])
        assert code == EXIT_OK
        assert doc["results"]["all_passed"] is True
        assert doc["results"]["measured_distance"] == 3

    def test_bad_matrix_is_infeasible(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("10\n")
        code = main(
            ["validate-code", "--matrix-file", str(bad), "--n", "2", "--k", "0", "--d", "1"]
        )
        assert code == EXIT_USAGE  # k=0 violates the parameter domain

    def test_broken_orthogonality_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("100\n")
        code = main(
            ["validate-code", "--matrix-file", str(bad), "--n", "3", "--k", "1", "--d", "1"]
        )
        assert code == EXIT_INFEASIBLE

    def test_missing_selector(self, capsys, tmp_path):
        assert main(["validate-code"]) == EXIT_USAGE
        matrix = tmp_path / "m.txt"
        matrix.write_text("1111000\n")
        for extra in (
            ["--matrix-file", str(matrix), "--n", "7", "--k", "1", "--d", "3"],
            ["--matrix-file", str(matrix)], ["--n", "7"], ["--k", "1"], ["--d", "3"],
        ):
            assert main(["validate-code", "--code", "rm15", *extra]) == EXIT_USAGE
        assert "--code takes no" in capsys.readouterr().err


class TestOuterCommands:
    def test_build_then_check(self, capsys, tmp_path):
        out = tmp_path / "outer.json"
        code = main(
            ["outer-build", "--a-n", "9", "--w", "3", "--s", "3", "--girth", "6",
             "--seed", "7", "--output", str(out)]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["results"]["girth"] == 6

        schedule = tmp_path / "outer.txt"
        schedule.write_text(doc["results"]["code_text"])
        code, doc = run_json(
            capsys,
            ["check-sensitivity", "--matrix-file", str(schedule),
             "--d-tilde", "2", "--s-req", "2"],
        )
        assert code == EXIT_OK
        assert doc["results"]["sensitive"] is True

    def test_infeasible_build(self, capsys):
        code = main(
            ["outer-build", "--a-n", "4", "--w", "3", "--s", "2", "--girth", "8",
             "--max-attempts", "5"]
        )
        assert code == EXIT_INFEASIBLE

    @pytest.mark.parametrize("flag", [["--max-attempts", "0"], ["--w", "0"], ["--girth", "5"]])
    def test_argument_error_is_usage_error(self, capsys, flag):
        argv = ["outer-build", "--a-n", "4", "--w", "1", "--s", "1", *flag]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: ")

    def test_exhausted_retries_report_best_girth_once(self, capsys):
        argv = ["outer-build", "--a-n", "4", "--w", "2", "--s", "2", "--girth", "10",
                "--max-attempts", "3"]
        assert main(argv) == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert err.startswith("infeasible: ")
        assert err.endswith(" (best girth: 8)\n") and err.count("8") == 1

    def test_failed_sensitivity_exits_two(self, capsys, tmp_path):
        schedule = tmp_path / "identity.txt"
        schedule.write_text("10\n01\n")
        code = main(
            ["check-sensitivity", "--matrix-file", str(schedule),
             "--d-tilde", "2", "--s-req", "2"]
        )
        assert code == EXIT_INFEASIBLE

    def test_guard_exits_two(self, capsys, tmp_path):
        schedule = tmp_path / "wide.txt"
        schedule.write_text("0" * 5000 + "\n")
        code = main(["check-sensitivity", "--matrix-file", str(schedule),
                     "--d-tilde", "3", "--s-req", "1"])
        assert code == EXIT_INFEASIBLE
        assert "exhaustive guard" in capsys.readouterr().err

    def test_forged_girth_header_is_not_trusted(self, capsys, tmp_path):
        # K_{4,4} incidence, true girth 8 = 2 * d_tilde, under a header that claims a forest
        rows = ["".join(str(int(bit // 4 == v)) for bit in range(16)) for v in range(4)]
        rows += ["".join(str(int(bit % 4 == v)) for bit in range(16)) for v in range(4)]
        schedule = tmp_path / "forged.txt"
        schedule.write_text("4 2 inf\n" + "\n".join(rows) + "\n")
        code, doc = run_json(capsys, ["check-sensitivity", "--matrix-file", str(schedule),
                                      "--d-tilde", "4", "--s-req", "2"])
        assert code == EXIT_INFEASIBLE
        assert doc["results"] == {
            "sensitive": False,
            "witness": {"pattern_bits": 0x33, "weight": 4, "violated_checks": 0},
        }

    @pytest.mark.parametrize("flag", [["--mode", "sampled"], ["--samples", "10"], ["--seed", "1"]])
    def test_sampling_options_are_gone(self, capsys, tmp_path, flag):
        schedule = tmp_path / "identity.txt"
        schedule.write_text("10\n01\n")
        argv = ["check-sensitivity", "--matrix-file", str(schedule), "--d-tilde", "1",
                "--s-req", "1"]
        assert main(argv) == EXIT_OK
        assert main(argv + flag) == EXIT_USAGE

    def test_output_with_sampling_keys_is_refused(self, capsys, tmp_path):
        schedule = tmp_path / "identity.txt"
        schedule.write_text("10\n01\n")
        old = tmp_path / "old.json"
        old.write_text(json.dumps({"version": "0.1.0", "config": {
            "matrix_file": str(schedule), "d_tilde": 1, "s_req": 1,
            "mode": "exhaustive", "samples": 20000, "seed": 0}}))
        assert main(["check-sensitivity", "--config", str(old)]) == EXIT_USAGE
        assert "unknown config key 'mode'" in capsys.readouterr().err


class TestAnalyze:
    def test_matches_library_evaluation(self, capsys):
        code, doc = run_json(
            capsys, ["analyze", "--inner", "149,117,5", "--pre-rounds", "3"]
        )
        assert code == EXIT_OK
        params = CssCodeParams(149, 117, 5)
        spec = ProtocolSpec(3, params, 117**5)
        report = evaluate(spec)
        assert doc["results"]["log10_rate"] == round(report.effective_rate.log10, 6)
        assert doc["results"]["label"] == "(3;1)"
        assert doc["config"]["success_eps"] == "required"

    def test_missing_inner(self, capsys):
        assert main(["analyze", "--pre-rounds", "3"]) == EXIT_USAGE

    def test_input_above_threshold_is_infeasible(self, capsys):
        code = main(["analyze", "--inner", "149,117,5", "--pre-rounds", "3", "--eps0", "0.2"])
        assert code == EXIT_INFEASIBLE
        assert "infeasible: stage 1" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["0", "-1"])
    def test_scale_below_one_is_usage_error(self, capsys, scale):
        argv = ["analyze", "--inner", "149,117,5", "--pre-rounds", "3", "--scale", scale]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "scale factor must be >= 1" in captured.err

    def test_zero_scale_in_compare_spec_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        entry = {"inner": [149, 117, 5], "pre_rounds": 3, "scale": 0}
        cfg.write_text(json.dumps({"specs": [entry]}))
        assert main(["compare", "--config", str(cfg)]) == EXIT_USAGE
        assert "scale factor must be >= 1" in capsys.readouterr().err

    def test_no_negative_zero(self, capsys):
        assert main(["analyze", "--inner", "149,117,5", "--pre-rounds", "3"]) == EXIT_OK
        floats = []
        doc = json.loads(capsys.readouterr().out,
                         parse_float=lambda t: floats.append(t) or float(t))
        assert "-0.0" not in floats
        assert doc["results"]["stages"][1]["log10_success_prob"] == 0.0


    def test_collapsed_success_probability_is_null(self, capsys):
        argv = ["analyze", "--inner", "149,117,5", "--pre-rounds", "0",
                "--scale", str(10**400), "--success-eps", "achieved"]
        assert main(argv) == EXIT_OK
        doc = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        results = doc["results"]
        assert results["log10_rate"] is None
        assert results["log10_success_prob"] is None
        assert results["stages"][1]["log10_success_prob"] is None

    def test_collapsed_rate_in_compare_is_null(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        entry = {"inner": [149, 117, 5], "pre_rounds": 0, "scale": 10**400}
        cfg.write_text(json.dumps({"specs": [entry], "success_eps": "achieved",
                                   "pre_rounds_max": 1}))
        assert main(["compare", "--config", str(cfg)]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        (row,) = [r for r in doc["results"] if r["series"] == "check_schedule"]
        assert row["log10_rate"] is None

    def test_chain_below_float_log_range_is_null(self, capsys):
        # from p = 646 at eps0 = 0.001 the chain's log10 eps_out is below float range
        argv = ["analyze", "--inner", "149,117,5", "--pre-rounds", "700", "--eps0", "0.001"]
        assert main(argv) == EXIT_OK
        doc = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        chain = doc["results"]["stages"][0]
        assert chain["log10_eps_out"] is None
        assert chain["log10_success_prob"] == doc["results"]["log10_success_prob"] < 0


class TestSearch:
    def test_reproduces_headline_code(self, capsys):
        code, doc = run_json(
            capsys,
            ["search", "--rate-floor-log10", "-7.0324", "--n-max", "10000",
             "--pre-rounds", "0,1,2,3,4,5,6"],
        )
        assert code == EXIT_OK
        assert doc["results"]["inner"] == [8104, 8002, 9]

    def test_makes_no_evaluate_call(self, capsys, monkeypatch):
        # search_best returns the chosen spec's report: nothing is evaluated again
        argv = ["search", "--rate-floor-log10", "-7.0324"]
        code, expected = run_json(capsys, argv)
        calls = []
        monkeypatch.setattr(msdistill.cli, "evaluate", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(msdistill.pipeline, "evaluate", lambda *a, **k: calls.append(a))
        assert run_json(capsys, argv) == (code, expected) and code == EXIT_OK
        assert calls == []

    def test_impossible_floor(self, capsys):
        assert main(["search", "--rate-floor-log10", "1.0"]) == EXIT_INFEASIBLE

    def test_skips_candidates_above_threshold(self, capsys):
        # at eps0 = 0.2 the p = 3 chain crosses threshold; p = 0, 1 and 2 evaluate
        argv = ["search", "--rate-floor-log10", "-7", "--eps0", "0.2"]
        code, doc = run_json(capsys, argv)
        assert code == EXIT_OK
        below, expected = run_json(capsys, argv + ["--pre-rounds", "0,1,2"])
        assert below == EXIT_OK
        assert doc["results"] == expected["results"]
        assert doc["results"]["report"]["label"] == "(0;1)"

    def test_every_candidate_above_threshold_is_infeasible(self, capsys):
        argv = ["search", "--rate-floor-log10", "-7", "--eps0", "0.2", "--pre-rounds", "3"]
        assert main(argv) == EXIT_INFEASIBLE
        assert "input error must be below 1" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag-empty", "flag-comma", "config"])
    def test_empty_pre_rounds_list_is_usage_error(self, capsys, tmp_path, source):
        # no round count given is an argument error; an empty code family stays infeasible
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pre_rounds": []}))
        rounds = {"flag-empty": ["--pre-rounds", ""], "flag-comma": ["--pre-rounds", ","],
                  "config": ["--config", str(cfg)]}[source]
        assert main(["search", "--rate-floor-log10", "-7", *rounds]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: pre_rounds needs at least one round count\n"


class TestCompare:
    def test_csv_series(self, capsys):
        code = main(["compare", "--format", "csv", "--pre-rounds-max", "3"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert lines[0] == "series,label,neg_log10_eps,log10_rate"
        series = {ln.split(",")[0] for ln in lines[1:]}
        assert series == {"repeated_15to1", "check_schedule", "constant_overhead"}
        red = [ln for ln in lines[1:] if ln.startswith("constant_overhead")]
        assert len({ln.rsplit(",", 1)[1] for ln in red}) == 1

    def test_metadata_embedded(self, capsys):
        code, doc = run_json(capsys, ["compare"])
        assert code == EXIT_OK
        assert doc["metadata"]["baseline_block_length_derived"] == 932089
        assert doc["version"] == __version__

    def test_input_above_threshold_is_infeasible(self, capsys):
        # the repeated 15->1 series diverges: its fourth round gets an input above 1
        assert main(["compare", "--eps-in", "0.2"]) == EXIT_INFEASIBLE
        assert "infeasible: 15->1 round 4" in capsys.readouterr().err

    def test_input_outside_unit_interval_is_usage_error(self, capsys):
        assert main(["compare", "--eps-in", "1.5"]) == EXIT_USAGE
        assert "0 <= eps < 1" in capsys.readouterr().err

    def test_chain_below_float_log_range_is_inf(self, capsys):
        assert main(["compare", "--format", "csv", "--pre-rounds-max", "700"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        chain = [ln.split(",") for ln in lines if ln.startswith("repeated_15to1,")]
        assert [row[1] for row in chain] == [str(p) for p in range(1, 701)]
        assert chain[-1][2] == "inf" and float(chain[-1][3]) < -800


# The protocol subcommands, each up to the flag that sets its raw input error.
INPUT_ERROR_ARGVS = {
    "analyze": ["analyze", "--inner", "149,117,5", "--pre-rounds", "3", "--eps0"],
    "table-s1": ["table-s1", "--eps0"],
    # only the p = 3 candidates, which cross threshold at eps0 = 0.2
    "search": ["search", "--rate-floor-log10", "-7", "--pre-rounds", "3", "--eps0"],
    "compare": ["compare", "--eps-in"],
}


class TestInputErrorRange:
    """An input error outside [0, 1) is a usage error; one above threshold is infeasible."""

    @pytest.mark.parametrize("value", ["1.5", "-0.1"])
    @pytest.mark.parametrize("name", sorted(INPUT_ERROR_ARGVS))
    def test_outside_unit_interval_is_usage_error(self, capsys, name, value):
        assert main(INPUT_ERROR_ARGVS[name] + [value]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must satisfy 0 <= eps" in captured.err

    @pytest.mark.parametrize("name", sorted(INPUT_ERROR_ARGVS))
    def test_above_threshold_is_infeasible(self, capsys, name):
        assert main(INPUT_ERROR_ARGVS[name] + ["0.2"]) == EXIT_INFEASIBLE
        assert "input error must be below 1" in capsys.readouterr().err


# The protocol subcommands, each with a cheap argv.
PROTOCOL_ARGVS = {
    "analyze": ["analyze", "--inner", "149,117,5", "--pre-rounds", "3"],
    "analyze-headline": ["analyze", "--inner", "8104,8002,9", "--pre-rounds", "1"],
    "table-s1": ["table-s1"],
    "compare": ["compare"],
    "search": ["search", "--rate-floor-log10", "-7.0324"],
}
class TestStandardJson:
    """No NaN, Infinity or -Infinity reaches a protocol subcommand's JSON, the zero included."""

    @pytest.mark.parametrize("convention", ["required", "achieved"])
    @pytest.mark.parametrize("name", sorted(PROTOCOL_ARGVS))
    def test_either_convention(self, capsys, name, convention):
        assert main(PROTOCOL_ARGVS[name] + ["--success-eps", convention]) == EXIT_OK
        json.loads(capsys.readouterr().out, parse_constant=reject_constant)

    def test_chain_below_float_log_range(self, capsys):
        # analyze's p = 700 case is TestAnalyze.test_chain_below_float_log_range_is_null
        assert main(["compare", "--pre-rounds-max", "700"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        assert doc["results"][699] == {"series": "repeated_15to1", "label": "700",
                                       "neg_log10_eps": None, "log10_rate": -824.192118}


class TestSimulate:
    def test_single_point(self, capsys):
        code, doc = run_json(
            capsys,
            ["simulate", "--eps", "0.005", "--trials", "50000", "--seed", "1"],
        )
        assert code == EXIT_OK
        assert doc["results"]["trials"] == 50000
        assert doc["results"]["accepted"] > 0

    def test_sweep_reports_slope(self, capsys):
        code, doc = run_json(
            capsys,
            ["simulate", "--outer", "single-check", "--eps", "0.004,0.01",
             "--trials", "400000", "--seed", "2"],
        )
        assert code == EXIT_OK
        assert 1.0 < doc["results"]["slope"] < 3.0

    def test_no_accepted_trials_is_valid_json(self, capsys):
        assert main(["simulate", "--eps", "0.45", "--trials", "1", "--seed", "0"]) == EXIT_OK

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert doc["results"]["accepted"] == 0
        assert doc["results"]["eps_out_total"] is None
        assert doc["results"]["eps_out_ci"] == [0.0, 1.0]

    def test_guard_violation_is_usage_error(self, capsys):
        assert main(["simulate", "--eps", "0.9", "--trials", "10"]) == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: eps must be in [0, 0.5)\n"

    def test_zero_block_size_is_usage_error(self, capsys):
        argv = ["simulate", "--eps", "0.01", "--trials", "10", "--block-size", "0"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: block_size must be >= 1\n"

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_nonpositive_workers_are_usage_error(self, capsys, workers):
        argv = ["simulate", "--eps", "0.01", "--trials", "10", "--workers", workers]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: workers must be >= 1\n"

    @pytest.mark.parametrize("outer", ["identity", "single-check"])
    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_outer_size_below_one_is_usage_error(self, capsys, outer, size):
        argv = ["simulate", "--outer", outer, "--outer-size", size, "--trials", "10"]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: --outer-size must be >= 1\n"

    def test_outer_file_takes_bare_rows(self, capsys, tmp_path):
        _, doc = run_json(capsys, ["outer-build", "--a-n", "9", "--w", "3", "--s", "3",
                                   "--girth", "6", "--seed", "7"])
        headed = tmp_path / "headed.txt"
        headed.write_text(doc["results"]["code_text"])
        bare = tmp_path / "bare.txt"
        bare.write_text(doc["results"]["code_text"].partition("\n")[2])
        results = []
        for schedule in (headed, bare):
            code, doc = run_json(capsys, ["simulate", "--outer", str(schedule), "--eps", "0.01",
                                          "--trials", "5000", "--seed", "3", "--mode", "exact"])
            assert code == EXIT_OK
            results.append(doc["results"])
        assert results[0] == results[1]
        assert results[0]["accepted"] < results[0]["trials"]

    @pytest.mark.parametrize("source", ["flag-empty", "flag-comma", "config"])
    def test_empty_eps_list_is_usage_error(self, capsys, tmp_path, source):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps": []}))
        eps = {"flag-empty": ["--eps", ""], "flag-comma": ["--eps", ","],
               "config": ["--config", str(cfg)]}[source]
        assert main(["simulate", *eps, "--trials", "10"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: --eps needs at least one value\n"

    def test_slope_fit_without_events_hints_at_trials(self, capsys):
        argv = ["simulate", "--eps", "1e-6,2e-6", "--trials", "10"]
        assert main(argv) == EXIT_INFEASIBLE
        assert capsys.readouterr().err == (
            "infeasible: not enough nonzero points for a slope fit "
            "(raise trials or the eps values)\n"
        )

    def test_replay_is_byte_identical(self, tmp_path, monkeypatch):
        first = tmp_path / "run1.json"
        second = tmp_path / "run2.json"
        # 0.05 x 60 sites x 60000 trials: 180k expected faults, room for 3 shares of 4 blocks
        argv = ["simulate", "--eps", "0.05", "--trials", "60000", "--seed", "11",
                "--workers", "3", "--block-size", "16384"]
        shares = []
        real = fault_sim._simulate_share
        monkeypatch.setattr(fault_sim, "_simulate_share", lambda *a: shares.append(a) or real(*a))
        assert main(argv + ["--output", str(first)]) == EXIT_OK
        assert main(
            ["simulate", "--config", str(first), "--output", str(second)]
        ) == EXIT_OK
        assert len(shares) == 2 * 3
        assert first.read_bytes() == second.read_bytes()

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps": [0.005], "trials": 30000, "seed": 4}))
        code, doc = run_json(
            capsys, ["simulate", "--config", str(cfg), "--trials", "10000"]
        )
        assert code == EXIT_OK
        assert doc["config"]["trials"] == 10000
        assert doc["config"]["seed"] == 4


class TestConfigFileChecks:
    """A config-file value is checked like the same flag, and a bad one is a usage error."""

    def run_config(self, capsys, tmp_path, argv, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        code = main(argv + ["--config", str(cfg)])
        return code, capsys.readouterr()

    def test_string_for_int_key(self, capsys, tmp_path):
        code, captured = self.run_config(capsys, tmp_path, ["simulate"], {"trials": "10"})
        assert code == EXIT_USAGE
        assert "'trials'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", [10.0, True])
    def test_float_or_bool_for_int_key(self, capsys, tmp_path, value):
        code, captured = self.run_config(capsys, tmp_path, ["simulate"], {"seed": value})
        assert code == EXIT_USAGE
        assert "'seed'" in captured.err

    def test_choice_checked_like_the_flag(self, capsys, tmp_path):
        argv = ["simulate", "--trials", "10"]
        assert main(argv + ["--mode", "quantum"]) == EXIT_USAGE
        code, captured = self.run_config(capsys, tmp_path, argv, {"mode": "quantum"})
        assert code == EXIT_USAGE
        assert "'mode'" in captured.err

    def test_scalar_eps_still_accepted(self, capsys, tmp_path):
        code, captured = self.run_config(
            capsys, tmp_path, ["simulate"], {"eps": 0.005, "trials": 2000, "seed": 3}
        )
        assert code == EXIT_OK
        doc = json.loads(captured.out)
        assert doc["config"]["eps"] == 0.005
        assert doc["results"]["trials"] == 2000

    def test_required_key_from_config(self, capsys, tmp_path):
        values = {"a_n": 9, "w": 3, "s": 3, "girth": 6, "seed": 7}
        code, captured = self.run_config(capsys, tmp_path, ["outer-build"], values)
        assert code == EXIT_OK
        assert json.loads(captured.out)["results"]["girth"] == 6

    @pytest.mark.parametrize(
        "entry_eps0, eps_in", [(0.05, 0.1), (None, 0.05)], ids=["entry-wins", "null-takes-eps-in"]
    )
    def test_compare_entry_eps0(self, capsys, tmp_path, entry_eps0, eps_in):
        entry = {"pre_rounds": 3, "inner": [149, 117, 5], "eps0": entry_eps0}
        values = {"specs": [entry], "eps_in": eps_in, "pre_rounds_max": 2}
        code, captured = self.run_config(capsys, tmp_path, ["compare"], values)
        assert code == EXIT_OK
        (row,) = [r for r in json.loads(captured.out)["results"]
                  if r["series"] == "check_schedule"]
        code, doc = run_json(
            capsys, ["analyze", "--inner", "149,117,5", "--pre-rounds", "3", "--eps0", "0.05"]
        )
        assert code == EXIT_OK
        assert row["log10_rate"] == doc["results"]["log10_rate"]
        assert row["neg_log10_eps"] == -doc["results"]["log10_eps_out"]

    def test_compare_entry_checked_like_analyze(self, capsys, tmp_path):
        code, captured = self.run_config(
            capsys, tmp_path, ["compare"], {"specs": [{"pre_rounds": 3}]}
        )
        assert code == EXIT_USAGE
        assert "specs[0]" in captured.err
        code, captured = self.run_config(
            capsys, tmp_path, ["compare"], {"specs": [{"inner": [149, 117, 5], "eps0": "0.1"}]}
        )
        assert code == EXIT_USAGE
        assert "'eps0'" in captured.err

    @pytest.mark.parametrize("embedded", ["x", [1], 5])
    def test_replayed_config_must_be_an_object(self, capsys, tmp_path, embedded):
        values = {"config": embedded, "version": "0.1.0"}
        code, captured = self.run_config(capsys, tmp_path, ["analyze"], values)
        assert code == EXIT_USAGE
        assert captured.err.endswith("cfg.json must hold a JSON object\n")

    def test_unknown_key_refused(self, capsys, tmp_path):
        code, captured = self.run_config(
            capsys, tmp_path, ["simulate"], {"trails": 10, "eps": 0.2}
        )
        assert code == EXIT_USAGE
        assert "'trails'" in captured.err
        assert captured.out == ""

    def test_unknown_key_in_compare_entry_refused(self, capsys, tmp_path):
        specs = [{"inner": [149, 117, 5], "pre_rounds": 3},
                 {"inner": [149, 117, 5], "pre_rouds": 3}]
        code, captured = self.run_config(capsys, tmp_path, ["compare"], {"specs": specs})
        assert code == EXIT_USAGE
        assert "specs[1]" in captured.err and "'pre_rouds'" in captured.err
        assert captured.out == ""


class TestReplay:
    """Every subcommand's output replays byte-for-byte from its embedded config."""

    def assert_replays(self, tmp_path, argv, expected=EXIT_OK):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main(argv + ["--output", str(first)]) == expected
        assert main([argv[0], "--config", str(first), "--output", str(second)]) == expected
        assert first.read_bytes() == second.read_bytes()
        return json.loads(first.read_text())

    def test_validate_code(self, tmp_path):
        doc = self.assert_replays(tmp_path, ["validate-code", "--code", "rm15"])
        assert doc["results"]["all_passed"] is True

    def test_failed_validation(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("100\n")
        argv = ["validate-code", "--matrix-file", str(bad), "--n", "3", "--k", "1", "--d", "1"]
        doc = self.assert_replays(tmp_path, argv, expected=EXIT_INFEASIBLE)
        assert doc["results"]["all_passed"] is False

    def test_outer_build_json_and_csv(self, capsys, tmp_path):
        argv = ["outer-build", "--a-n", "9", "--w", "3", "--s", "3", "--girth", "6",
                "--seed", "7"]
        self.assert_replays(tmp_path, argv)
        assert main(argv + ["--format", "csv"]) == EXIT_OK
        from_flags = capsys.readouterr().out
        replay = ["outer-build", "--config", str(tmp_path / "first.json"), "--format", "csv"]
        assert main(replay) == EXIT_OK
        assert capsys.readouterr().out == from_flags

    def test_check_sensitivity_on_built_schedule(self, tmp_path):
        built = tmp_path / "outer.json"
        argv = ["outer-build", "--a-n", "9", "--w", "3", "--s", "3", "--girth", "6",
                "--seed", "7", "--output", str(built)]
        assert main(argv) == EXIT_OK
        schedule = tmp_path / "outer.txt"
        schedule.write_text(json.loads(built.read_text())["results"]["code_text"])
        doc = self.assert_replays(
            tmp_path,
            ["check-sensitivity", "--matrix-file", str(schedule), "--d-tilde", "2",
             "--s-req", "2"],
        )
        assert doc["results"]["sensitive"] is True

    def test_search(self, tmp_path):
        doc = self.assert_replays(
            tmp_path,
            ["search", "--rate-floor-log10", "-5", "--n-max", "2000",
             "--pre-rounds", "0,1,2,3", "--eps0", "0.05"],
        )
        assert doc["config"]["pre_rounds"] == [0, 1, 2, 3]


class TestOutputFile:
    """``--output`` writes the stdout document's bytes whatever the target held before."""

    ARGV = ["analyze", "--inner", "149,117,5", "--pre-rounds", "3"]

    @pytest.fixture(params=["json", "csv"])
    def argv_and_doc(self, request, capsys):
        argv = self.ARGV + ["--format", request.param]
        assert main(argv) == EXIT_OK
        return argv, capsys.readouterr().out.encode("utf-8")

    @pytest.mark.parametrize("before", [None, b"x" * 5000, b"{}\n"],
                             ids=["new", "longer", "shorter"])
    def test_file_holds_exactly_the_document(self, tmp_path, argv_and_doc, before):
        argv, doc = argv_and_doc
        target = tmp_path / "out"
        if before is not None:
            target.write_bytes(before)
        assert main(argv + ["--output", str(target)]) == EXIT_OK
        assert target.read_bytes() == doc

    def test_devnull(self, argv_and_doc):
        argv, _ = argv_and_doc
        assert main(argv + ["--output", os.devnull]) == EXIT_OK

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_dev_stdout_into_a_pipe(self, argv_and_doc):
        argv, doc = argv_and_doc
        package = Path(msdistill.__file__).resolve().parents[1]
        run = subprocess.run(
            [sys.executable, "-m", "msdistill.cli", *argv, "--output", "/dev/stdout"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(package)},
        )
        assert (run.returncode, run.stderr) == (EXIT_OK, b"")
        assert run.stdout == doc

    def test_new_file_mode_follows_the_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            with open(tmp_path / "reference", "w"):
                pass
            assert main(self.ARGV + ["--output", str(tmp_path / "out")]) == EXIT_OK
        finally:
            os.umask(old)
        mode = (tmp_path / "out").stat().st_mode
        assert mode == (tmp_path / "reference").stat().st_mode

    @pytest.mark.parametrize("target", ["dir", "missing/out.json"])
    def test_unwritable_target_is_usage_error(self, capsys, tmp_path, target):
        (tmp_path / "dir").mkdir()
        assert main(self.ARGV + ["--output", str(tmp_path / target)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: [Errno")


class TestJsonText:
    """``_emit``'s writer gives ``json.dumps(indent=2, sort_keys=True)``'s text, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_equals_stdlib_indented_dumps(self, value):
        assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [{1, 2}, {"a": [frozenset()]}, {1: "a"}, {"a": {2: 3}}],
                             ids=["set", "nested-set", "int-key", "nested-int-key"])
    def test_unwritable_value_is_type_error(self, value):
        with pytest.raises(TypeError):
            _json_text(value)


class TestTableS1:
    def test_rows_and_tolerances(self, capsys):
        code, doc = run_json(capsys, ["table-s1"])
        assert code == EXIT_OK
        by_label = {row["label"]: row for row in doc["results"]}
        assert by_label["(3;1)"]["rate_ratio"] == pytest.approx(1.0, abs=0.3)
        assert by_label["(4;1)"]["rate_ratio"] == pytest.approx(1.0, abs=0.1)
        # the published error columns are carried verbatim next to our bound
        assert by_label["(4;1)"]["published_log10_eps_out"] == -353.0
        assert by_label["(4;1)"]["computed_log10_eps_out"] < -353.0

    def test_input_above_threshold_is_infeasible(self, capsys):
        assert main(["table-s1", "--eps0", "0.2"]) == EXIT_INFEASIBLE
        assert "infeasible: stage 1" in capsys.readouterr().err


class TestPlumbing:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["make-coffee"]) == EXIT_USAGE

    def test_version_embedded_everywhere(self, capsys):
        _, doc = run_json(capsys, ["gv-search", "--n-min", "5", "--n-max", "5"])
        assert doc["version"] == __version__
        assert "conventions" in doc

    def test_csv_refused_where_there_is_no_csv_form(self, capsys):
        assert main(["validate-code", "--code", "steane", "--format", "csv"]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_csv_embeds_config_comment(self, capsys):
        main(["gv-search", "--n-min", "149", "--n-max", "149", "--format", "csv"])
        out = capsys.readouterr().out
        assert any(ln.startswith("# config=") for ln in out.splitlines())
        assert any(ln.startswith(f"# version={__version__}") for ln in out.splitlines())


def printed(capsys, parse, argv):
    """What ``parse(argv)`` prints before it exits 0 (help or version)."""
    with pytest.raises(SystemExit) as exit_info:
        parse(argv)
    assert exit_info.value.code == 0
    return capsys.readouterr().out


def full_parser_error(argv):
    """The usage error from the parser holding every subparser, then from config resolution."""
    try:
        args = build_parser().parse_args(argv)
        _resolve(COMMANDS[args.subcommand], {}, vars(args))
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{argv} is not a usage error")


class TestSubcommandParser:
    """``main`` builds only the invoked subparser; what it prints stays the full parser's."""

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")  # argparse wraps help to the terminal width

    @pytest.mark.parametrize("name", COMMANDS)
    def test_subcommand_help_matches_full_parser(self, capsys, name):
        expected = printed(capsys, build_parser().parse_args, [name, "--help"])
        assert expected.startswith(f"usage: msdistill {name} ")
        assert printed(capsys, main, [name, "--help"]) == expected

    def test_top_level_help_lists_every_subcommand(self, capsys):
        out = printed(capsys, main, ["--help"])
        assert out == printed(capsys, build_parser().parse_args, ["--help"])
        assert all(name in out for name in COMMANDS)

    @pytest.mark.parametrize("argv", [
        ["analyze", "--inner", "1,2"],
        ["simulate", "--mode", "quantum"],
        ["search", "--format", "csv", "--rate-floor-log10", "-7"],
        ["analyze", "--bogus", "1"],
        ["outer-build", "--w", "3", "--s", "3"],
        ["analyze", "--inner", "149,117,5", "--version"],
        ["analyse", "--inner", "149,117,5"],
        [],
    ], ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_usage_error_matches_full_parser(self, capsys, argv):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"usage error: {full_parser_error(argv)}\n"
        assert captured.out == ""

    def test_builds_one_subparser(self, capsys, monkeypatch):
        build_parser.cache_clear()  # an earlier test may have built it already
        built = []
        add_parser = argparse._SubParsersAction.add_parser

        def counting_add_parser(self, name, **kwargs):
            built.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting_add_parser)
        assert main(["analyze", "--inner", "149,117,5"]) == EXIT_OK
        assert built == ["analyze"]
        assert main(["analyze", "--inner", "149,117,5"]) == EXIT_OK
        assert built == ["analyze"]  # the second call reuses the parser

    def test_console_script_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["msdistill", "analyze", "--inner", "149,117,5"])
        assert main() == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["subcommand"] == "analyze"
        assert doc["config"]["inner"] == "149,117,5"

        monkeypatch.setattr(sys, "argv", ["msdistill", "--version"])
        with pytest.raises(SystemExit) as exit_info:
            main()
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == f"{__version__}\n"


class TestSharedParser:
    """One parser serves every call of a process; no call sees what an earlier one parsed."""

    ANALYZE = ["analyze", "--inner", "149,117,5"]

    def test_flag_does_not_carry_over(self, capsys):
        _, first = run_json(capsys, self.ANALYZE + ["--scale", "5"])
        assert first["config"]["scale"] == 5
        _, second = run_json(capsys, self.ANALYZE)
        assert second["config"]["scale"] is None
        assert second["results"] != first["results"]

    def test_csv_format_does_not_carry_over(self, capsys):
        assert main(self.ANALYZE + ["--format", "csv"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("# version=")
        code, doc = run_json(capsys, self.ANALYZE)
        assert code == EXIT_OK and doc["subcommand"] == "analyze"

    def test_usage_error_leaves_the_next_call_as_in_a_fresh_process(self, capsys):
        assert main(["analyze", "--inner", "1,2", "--scale", "5"]) == EXIT_USAGE
        capsys.readouterr()
        assert main(self.ANALYZE) == EXIT_OK
        out = capsys.readouterr().out
        package = Path(msdistill.__file__).resolve().parents[1]
        fresh = subprocess.run(
            [sys.executable, "-m", "msdistill.cli", *self.ANALYZE], capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": str(package)}, check=True,
        )
        assert out == fresh.stdout

    def test_help_wraps_to_the_width_at_print_time(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        wide = printed(capsys, main, ["analyze", "--help"])
        monkeypatch.setenv("COLUMNS", "40")
        narrow = printed(capsys, main, ["analyze", "--help"])
        assert narrow != wide
        assert narrow == printed(capsys, build_parser.__wrapped__(("analyze",)).parse_args,
                                 ["analyze", "--help"])


# One cheap run of every subcommand: its argv after the name, and its exit code.
SMOKE = {
    "gv-search": (["--n-min", "149", "--n-max", "151"], EXIT_OK),
    "validate-code": (["--code", "steane"], EXIT_OK),
    "outer-build": (["--a-n", "9", "--w", "3", "--s", "3", "--girth", "6"], EXIT_OK),
    # no pattern violates 4 checks of a 3-regular schedule: the witness is written, then exit 2
    "check-sensitivity": (["--matrix-file", "{schedule}", "--d-tilde", "3", "--s-req", "4"],
                          EXIT_INFEASIBLE),
    "analyze": (["--inner", "149,117,5", "--pre-rounds", "3"], EXIT_OK),
    "search": (["--rate-floor-log10", "-5", "--n-max", "2000", "--pre-rounds", "0,1,2,3",
                "--eps0", "0.05"], EXIT_OK),
    "compare": ([], EXIT_OK),
    "simulate": (["--trials", "2000"], EXIT_OK),
    "table-s1": ([], EXIT_OK),
}


class TestEverySubcommand:
    def test_table_covers_every_subcommand(self):
        assert SMOKE.keys() == COMMANDS.keys()

    @pytest.mark.parametrize("name", SMOKE)
    def test_writes_standard_json(self, capsys, tmp_path, name):
        schedule = tmp_path / "outer.txt"
        _, doc = run_json(capsys, ["outer-build", *SMOKE["outer-build"][0]])
        schedule.write_text(doc["results"]["code_text"])

        flags, expected = SMOKE[name]
        assert main([name, *(f.format(schedule=schedule) for f in flags)]) == expected
        doc = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        assert doc["subcommand"] == name


# Boundary inputs of every subcommand, each fast: the argv and its exit code, which the
# stderr prefix must name. None may raise.
BOUNDARY = [
    (["gv-search", "--n-min", "0", "--n-max", "3"], EXIT_OK),
    (["validate-code", "--matrix-file", "{empty}", "--n", "1", "--k", "1", "--d", "1"],
     EXIT_USAGE),
    (["validate-code", "--code", "nope"], EXIT_USAGE),
    (["outer-build", "--a-n", "0", "--w", "1", "--s", "1"], EXIT_USAGE),
    (["check-sensitivity", "--matrix-file", "{empty}", "--d-tilde", "0", "--s-req", "0"],
     EXIT_OK),
    (["check-sensitivity", "--matrix-file", "{empty}", "--d-tilde", "-1", "--s-req", "2"],
     EXIT_USAGE),
    # 5000 columns up to weight 3 pass the exhaustive guard
    (["check-sensitivity", "--matrix-file", "{wide}", "--d-tilde", "3", "--s-req", "1"],
     EXIT_INFEASIBLE),
    (["analyze", "--inner", "7,1,3", "--eps0", "0"], EXIT_OK),
    (["analyze", "--inner", "1,1,1"], EXIT_USAGE),
    (["analyze", "--config", "{replay}"], EXIT_USAGE),
    (["search", "--rate-floor-log10", "0", "--n-max", "0"], EXIT_INFEASIBLE),
    # 1/sqrt(35), the 15-to-1 fixed point: the baseline's catalyst rounds never get below
    (["compare", "--eps-in", "0.1690308509457033"], EXIT_INFEASIBLE),
    (["compare", "--pre-rounds-max", "-1"], EXIT_USAGE),
    (["simulate", "--outer", "{empty}", "--trials", "10"], EXIT_OK),
    (["simulate", "--eps", "0", "--trials", "1"], EXIT_OK),
    (["simulate", "--trials", "0"], EXIT_USAGE),
    (["simulate", "--eps", "", "--trials", "10"], EXIT_USAGE),
    # no erroneous accept at either eps: the slope fit has no points
    (["simulate", "--eps", "1e-6,2e-6", "--trials", "10"], EXIT_INFEASIBLE),
    (["table-s1", "--eps0", "0"], EXIT_OK),
]


class TestBoundaryInputs:
    def test_table_covers_every_subcommand(self):
        assert {argv[0] for argv, _ in BOUNDARY} == COMMANDS.keys()

    @pytest.mark.parametrize("argv, expected", BOUNDARY, ids=[" ".join(a) for a, _ in BOUNDARY])
    def test_exits_without_traceback(self, capsys, tmp_path, argv, expected):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        wide = tmp_path / "wide.txt"
        wide.write_text("0" * 5000 + "\n")
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps({"config": 5, "version": __version__}))
        assert main([a.format(empty=empty, wide=wide, replay=replay) for a in argv]) == expected
        prefix = {EXIT_OK: "", EXIT_USAGE: "usage error: ", EXIT_INFEASIBLE: "infeasible: "}
        err = capsys.readouterr().err
        assert err.startswith(prefix[expected]) and bool(err) == (expected != EXIT_OK)

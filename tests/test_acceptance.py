"""End-to-end acceptance gate: one test per headline claim, stated tolerances.

Each test prints a single PASS line with the measured value when it succeeds,
so ``pytest -v -s tests/test_acceptance.py`` doubles as a results sheet.
"""
import json
import math
import random
import time

import pytest

from conftest import oracle_min_weight
from msdistill.analytics import overhead_exponent, predistill_chain, t_exponent
from msdistill.cli import EXIT_OK, main
from msdistill.comparison import qag_baseline_rate, qag_params, qag_threshold
from msdistill.fault_sim import (
    ProtocolInstance,
    fit_error_order,
    make_single_check_instance,
    min_undetected_weight,
)
from msdistill.gf2 import BinMatrix
from msdistill.inner_codes import (
    STEANE,
    CssCodeParams,
    WeaklySelfDualCode,
    gv_params,
)
from msdistill.outer_codes import OuterCode, check_sensitivity
from msdistill.pipeline import HadamardStep, PreDistillation, ProtocolSpec, evaluate


def test_acceptance_01_predistillation_chain():
    start = time.perf_counter()
    report = predistill_chain(3, 0.1)
    elapsed = time.perf_counter() - start
    eps = report.eps_out.to_float()
    assert eps == pytest.approx(1.18e-7, rel=0.01)
    assert elapsed < 1e-3
    print(f"PASS 1: three 15->1 rounds give eps {eps:.4e} in {elapsed * 1e6:.0f} us")


def test_acceptance_02_constant_overhead_baseline():
    start = time.perf_counter()
    rate, params, schedule = qag_baseline_rate(0.1)
    threshold = qag_threshold(qag_params(3))
    elapsed = time.perf_counter() - start
    assert schedule.rounds == 3
    assert rate.to_float() == pytest.approx(9.28e-8, rel=0.005)
    assert threshold == pytest.approx(2.14e-4, rel=0.02)
    assert elapsed < 1e-3
    print(
        f"PASS 2: baseline rate {rate.to_float():.4e}, threshold {threshold:.3e}, "
        f"catalyst rounds {schedule.rounds}, {elapsed * 1e6:.0f} us"
    )


def test_acceptance_03_existence_bound_parameters():
    big = gv_params(8104)
    small = gv_params(149, 5)
    assert (big.n_q, big.k_q, big.d_q) == (8104, 8002, 9)
    assert (small.n_q, small.k_q, small.d_q) == (149, 117, 5)
    print(f"PASS 3: parameter families give {big} and {small} exactly")


def test_acceptance_04_finite_size_rates():
    start = time.perf_counter()
    results = {}
    for label, (n, k, d), p, published, tolerance in [
        ("(4;1)", (8104, 8002, 9), 4, 2.5e-7, 1.1),
        ("(3;1)", (149, 117, 5), 3, 6.6e-6, 1.3),
    ]:
        params = CssCodeParams(n, k, d)
        spec = ProtocolSpec((PreDistillation(p), HadamardStep(params, k**d)))
        report = evaluate(spec)
        rate = 10.0**report.effective_rate.log10
        ratio = max(rate / published, published / rate)
        assert ratio <= tolerance, f"{label}: rate {rate:.3e} vs {published:.3e}"
        results[label] = (rate, ratio)
    elapsed = time.perf_counter() - start
    assert elapsed < 1e-2
    print(
        "PASS 4: rates "
        + ", ".join(f"{k} {v[0]:.3e} (x{v[1]:.3f})" for k, v in results.items())
        + f" in {elapsed * 1e3:.2f} ms"
    )


def test_acceptance_05_overhead_exponent():
    rng = random.Random(99)
    checked = 0
    while checked < 1000:
        n = rng.randint(2, 20000)
        k = rng.randint(1, n - 1)
        d = rng.randint(2, 60)
        if k >= n:
            continue
        gamma = overhead_exponent(CssCodeParams(n, k, d))
        assert gamma > 1.0, f"gamma={gamma} at [[{n},{k},{d}]]"
        checked += 1
    headline = overhead_exponent(CssCodeParams(8104, 8002, 9))
    assert headline == pytest.approx(1.0051, abs=1e-3)
    print(f"PASS 5: gamma > 1 on {checked} random triples; headline gamma {headline:.5f}")


def test_acceptance_06_monte_carlo_suppression_orders():
    start = time.perf_counter()
    instance = ProtocolInstance(STEANE, OuterCode(BinMatrix.identity(4), 1, 1), strict=False)
    cubic = fit_error_order(
        instance, [1e-3, 2e-3, 5e-3, 1e-2], trials=10**7, seed=2024
    )
    assert cubic.slope == pytest.approx(3.0, abs=0.3)
    quadratic = fit_error_order(
        make_single_check_instance(STEANE), [1e-3, 2e-3, 5e-3, 1e-2],
        trials=10**7, seed=512,
    )
    assert quadratic.slope == pytest.approx(2.0, abs=0.3)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"PASS 6: fitted orders {cubic.slope:.2f} (schedule) and "
        f"{quadratic.slope:.2f} (single check) in {elapsed:.1f} s"
    )


def test_acceptance_07_minimum_weight_oracle():
    start = time.perf_counter()
    rng = random.Random(7)
    compared = 0
    for _ in range(20):
        a_n = rng.randint(2, 6)
        m = rng.randint(1, 3)
        rows = tuple(rng.randint(0, (1 << a_n) - 1) for _ in range(m))
        outer = OuterCode(BinMatrix(m, a_n, rows), 0, 0)
        inner = WeaklySelfDualCode(
            CssCodeParams(7, 1, rng.choice([3, 5])), STEANE.check
        )
        instance = ProtocolInstance(inner, outer, strict=False)
        assert min_undetected_weight(instance, 6) == oracle_min_weight(instance, 6)
        compared += 1

    # sensitivity at ((d-1), (d-1)/2) forces minimum weight >= d
    sensitive = ProtocolInstance(STEANE, OuterCode(BinMatrix.identity(4), 1, 1), strict=False)
    ok, _ = check_sensitivity(sensitive.outer.matrix, 2, 1)
    assert ok
    assert min_undetected_weight(sensitive, 6) >= 3
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS 7: oracle equivalence on {compared} instances in {elapsed:.2f} s")


def test_acceptance_08_rate_exponent_trend():
    values = []
    for exp in range(10, 21):
        params = gv_params(2**exp)
        values.append(t_exponent(params, params.k_q**params.d_q))
    assert all(a > b for a, b in zip(values, values[1:])), values
    assert values[-1] <= 1.25
    print(
        f"PASS 8: t falls monotonically from {values[0]:.3f} to {values[-1]:.3f} "
        "over n = 2^10..2^20"
    )


def test_acceptance_09_cli_reproducibility(tmp_path):
    runs = [
        ["gv-search", "--n-min", "140", "--n-max", "160"],
        ["analyze", "--inner", "149,117,5", "--pre-rounds", "3"],
        ["compare", "--pre-rounds-max", "3"],
        ["simulate", "--eps", "0.005", "--trials", "150000", "--seed", "77",
         "--workers", "4", "--block-size", "16384"],
        ["table-s1"],
    ]
    for i, argv in enumerate(runs):
        first = tmp_path / f"first_{i}.json"
        second = tmp_path / f"second_{i}.json"
        assert main(argv + ["--output", str(first)]) == EXIT_OK
        replay = [argv[0], "--config", str(first), "--output", str(second)]
        assert main(replay) == EXIT_OK
        assert first.read_bytes() == second.read_bytes(), argv[0]
        assert json.loads(first.read_text())["config"]  # config embedded
    print(f"PASS 9: {len(runs)} CLI runs replay byte-identically from embedded configs")

"""Subcommand output, compared byte for byte with tests/golden/.

CALLS are the calls of the ``protocol_eval`` benchmark workload
(perfbench/workloads.py). SIMULATE_CALLS pin the Monte Carlo counts of a fixed
seed: Steane under the identity and single-check schedules, in both check
modes and under both corruption conventions, with 0.2 in each eps sweep so
that a block's draw takes more than one chunk. For each call the JSON
document, and the CSV document where the subcommand has a CSV form, is stored
under tests/golden/. A change that must print the same numbers keeps these
files as they are.

The three ``--success-eps achieved`` calls record the known unsound bounds of
ROADMAP item 3: their check-schedule stage's union bound exceeds 1 and prints
as ``log10_eps_out`` 29.24 (149,117,5), 181.22 and 341.26 (8104,8002,9 after
four and one pre-distillation rounds). The change that reports such a bound as
vacuous regenerates the files (``PYTHONPATH=src python tests/test_golden.py``)
and says so.
"""
from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from msdistill.cli import COMMANDS, EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"

CALLS = (
    ["gv-search", "--n-min", "8000", "--n-max", "8200"],
    ["analyze", "--inner", "149,117,5", "--pre-rounds", "3", "--success-eps", "required"],
    ["analyze", "--inner", "149,117,5", "--pre-rounds", "3", "--success-eps", "achieved"],
    ["analyze", "--inner", "8104,8002,9", "--pre-rounds", "4", "--success-eps", "required"],
    ["analyze", "--inner", "8104,8002,9", "--pre-rounds", "4", "--success-eps", "achieved"],
    ["analyze", "--inner", "8104,8002,9", "--pre-rounds", "1", "--success-eps", "achieved"],
    ["search", "--rate-floor-log10", "-7.0324"],
    ["compare"],
    ["table-s1"],
    ["validate-code", "--code", "rm15"],
)

_SIMULATE = ["simulate", "--inner", "steane", "--trials", "20000", "--block-size", "8192"]
_SWEEP = ["--eps", "0.005,0.01,0.05,0.2"]
SIMULATE_CALLS = (
    *(
        [*_SIMULATE, "--outer", "identity", *_SWEEP, "--mode", mode]
        for mode in ("idealized", "exact")
    ),
    *(
        [*_SIMULATE, "--outer", "single-check", *_SWEEP, "--mode", mode, "--corruption", corruption]
        for mode in ("idealized", "exact")
        for corruption in ("erroneous", "reject")
    ),
    *(
        [*_SIMULATE, "--outer", "identity", "--eps", "0.1", "--mode", mode,
         "--corruption", "reject"]
        for mode in ("idealized", "exact")
    ),
)

CASES = [
    (argv, fmt)
    for argv in (*CALLS, *SIMULATE_CALLS)
    for fmt in (("json", "csv") if COMMANDS[argv[0]].csv_header else ("json",))
]


def golden_path(argv: list[str], fmt: str) -> Path:
    """``analyze --inner 149,117,5`` -> golden/analyze_inner_149-117-5.json."""
    stem = "_".join(arg.removeprefix("--").replace(",", "-") for arg in argv)
    return GOLDEN / f"{stem}.{fmt}"


def run(argv: list[str], fmt: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--format", fmt])
    assert code == EXIT_OK
    return out.getvalue()


@pytest.mark.parametrize(
    "argv, fmt", CASES, ids=[golden_path(argv, fmt).name for argv, fmt in CASES]
)
def test_output_matches_golden(argv, fmt):
    assert run(argv, fmt) == golden_path(argv, fmt).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for argv, fmt in CASES:
        golden_path(argv, fmt).write_text(run(argv, fmt), encoding="utf-8", newline="\n")

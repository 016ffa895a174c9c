"""One benchmark workload, run in its own process; started by perfbench/run.py.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --t0 MONOTONIC_SPAWN_TIME [--setup-only]

The process imports msdistill from the checkout's ``src``, sets the workload
up, then repeats its pass (a fixed list of operations) until ``--seconds``
have elapsed, one operation at a time (closed loop, one caller). It prints
one JSON object with the raw measurements as its last line of output.

A pass's time is the summed wall time of the program calls in it; the
benchmark's own checks run outside that time. With ``--trace 1`` passes
alternate untraced and traced, so the tracing overhead is measured in the
same process under the same conditions.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import msdistill  # noqa: E402
from msdistill import cli, fault_sim, gf2, inner_codes, outer_codes  # noqa: E402
from msdistill.gf2 import BinMatrix  # noqa: E402
from msdistill.inner_codes import STEANE  # noqa: E402
from msdistill.outer_codes import OuterCode  # noqa: E402

from tracer import Tracer  # noqa: E402

WORKERS = 2  # monte_carlo worker threads; the benchmark machine has nproc = 2
DRAW_BYTES_PER_SITE = 5  # float32 uniform plus the bool fault mask


def dense_draw_bytes(block_size: int, fault_sites: int) -> int:
    """Computed size of monte_carlo's dense draw for one block."""
    return block_size * fault_sites * DRAW_BYTES_PER_SITE


class Recorder:
    """Counts operations, failures and the timed part of the current pass."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: dict[str, list] = {}
        self.pass_s = 0.0

    def call(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call into the program; the call's wall time counts toward the pass."""
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.pass_s += time.perf_counter() - start

    def attempt(self, label: str, body: Callable[[], list[tuple[str, str]]]) -> None:
        """Run one operation. ``body`` returns its failed checks as (kind, message).

        Kind "soundness" marks the output-soundness checks (a probability above
        1, a non-standard JSON token): they fail the operation, which counts in
        ``failed``, but leave ``correct`` alone. Every other failed check, and
        any exception, also makes the run incorrect.
        """
        self.attempted += 1
        try:
            problems = body()
        except Exception as exc:  # an operation that raises has failed
            problems = [("raised", "".join(traceback.format_exception_only(exc)).strip())]
        if not problems:
            return
        self.failed += 1
        if any(kind != "soundness" for kind, _ in problems):
            self.correct = False
        entry = self.failures.setdefault(label, [0, "; ".join(m for _, m in problems)])
        entry[0] += 1


def _check(ok: bool, message: str, kind: str = "reference") -> list[tuple[str, str]]:
    return [] if ok else [(kind, message)]


def _counts_ok(report: Any, trials: int) -> list[tuple[str, str]]:
    ok = (report.trials == trials
          and 0 <= report.erroneous_accepted <= report.accepted <= report.trials)
    return _check(ok, f"count invariant broken: {report}")


def _slope(points: list[tuple[float, int, int]]) -> tuple[float, float] | None:
    """Events-weighted log-log slope, as acceptance gate 06 fits it, and its standard error.

    Each point's log error rate has Poisson variance 1/events, so the weights
    are the event counts and the slope's variance is 1/sum(events*(x-mean)^2).
    """
    kept = [(eps, err / acc, err) for eps, acc, err in points if acc and err]
    if len(kept) < 2:
        return None
    x = np.log([p[0] for p in kept])
    y = np.log([p[1] for p in kept])
    events = np.array([p[2] for p in kept], dtype=float)
    slope = float(np.polyfit(x, y, 1, w=np.sqrt(events))[0])
    x_mean = float(np.average(x, weights=events))
    return slope, float(1.0 / np.sqrt(np.sum(events * (x - x_mean) ** 2)))


class Workload:
    """A pass (``run_pass``) plus once-per-run checks after the timed passes."""

    # pass_s_tail's percentile. It is fixed per workload, so that two commits
    # compare the same percentile even when one runs more passes. Each is the
    # highest round percentile with at least 10 passes above it in a 30 s
    # run; where a run has only about 10 passes, the maximum stands in.
    TAIL_PERCENTILE = 100

    def info(self) -> dict[str, Any]:
        """Fixed parameters worth printing with every result."""
        return {"tail_percentile": self.TAIL_PERCENTILE}

    def run_pass(self, p: int, rec: Recorder) -> None:
        raise NotImplementedError

    def finish(self, rec: Recorder) -> None:
        """Checks that run once per run, after the timed passes."""

    def summary(self) -> dict[str, Any]:
        """Results of the run worth printing, such as fitted slopes."""
        return {}

    def close(self) -> None:
        """Release what set-up acquired."""


class McSweep(Workload):
    """Gate 06's two fit_error_order sweeps as individual monte_carlo calls."""

    EPS = (1e-3, 2e-3, 5e-3, 1e-2)
    TRIALS = 1 << 18
    BLOCK = 1 << 16
    # Gate 06's band is order +- 0.3. Over [1e-3, 1e-2] the exact enumeration
    # (tests/conftest.py) puts the single check's expected slope at 2.24, and
    # a 30 s run's pooled slope has a standard error near 0.025, so the bare
    # band would fail about 1 run in 75 by chance. The band is therefore
    # widened by SLOPE_SIGMAS standard errors of the fit; a wrong order misses
    # it by dozens of standard errors.
    SLOPE_TOLERANCE = 0.3
    SLOPE_SIGMAS = 3.0
    TAIL_PERCENTILE = 70  # about 40 passes

    def __init__(self, seed: int) -> None:
        self.seed = seed
        identity = OuterCode(BinMatrix.identity(4), 1, 1)
        # (name, instance, expected suppression order)
        self.sweeps = (
            ("schedule", fault_sim.ProtocolInstance(STEANE, identity, strict=False), 3.0),
            ("single_check", fault_sim.make_single_check_instance(STEANE), 2.0),
        )
        self.pooled = {name: [[0, 0] for _ in self.EPS] for name, _, _ in self.sweeps}
        self.trials = 0
        self.probe: tuple | None = None
        self.fits: dict[str, dict[str, Any]] = {}

    def info(self) -> dict[str, Any]:
        return {
            **super().info(),
            "block_size": self.BLOCK,
            "trials_per_call": self.TRIALS,
            "dense_draw_bytes_per_block": {
                f"{name} ({inst.fault_sites} sites)": dense_draw_bytes(self.BLOCK, inst.fault_sites)
                for name, inst, _ in self.sweeps
            },
        }

    def run_pass(self, p: int, rec: Recorder) -> None:
        # Point i of sweep k in pass p uses seed + 8p + 4k + i, so every call
        # in a run draws fresh faults and the pooled counts grow with passes.
        for k, (name, instance, _) in enumerate(self.sweeps):
            for i, eps in enumerate(self.EPS):
                seed = self.seed + 8 * p + 4 * k + i

                def body(name=name, instance=instance, i=i, eps=eps, seed=seed):
                    report = rec.call(
                        fault_sim.monte_carlo, instance, eps, self.TRIALS, seed,
                        workers=WORKERS, block_size=self.BLOCK,
                    )
                    self.trials += report.trials
                    self.pooled[name][i][0] += report.accepted
                    self.pooled[name][i][1] += report.erroneous_accepted
                    if self.probe is None and name == "schedule" and eps == self.EPS[-1]:
                        self.probe = (instance, eps, seed, report)
                    return _counts_ok(report, self.TRIALS)

                rec.attempt(f"monte_carlo {name} eps={eps:g}", body)

    def finish(self, rec: Recorder) -> None:
        def determinism():
            instance, eps, seed, report = self.probe
            again = fault_sim.monte_carlo(
                instance, eps, self.TRIALS, seed, workers=1, block_size=self.BLOCK
            )
            return _check(again == report, f"workers=1 gave {again}, workers={WORKERS} gave {report}")

        rec.attempt("determinism probe (workers=1 vs 2)", determinism)
        for name, _, order in self.sweeps:
            def fit(name=name, order=order):
                points = [(eps, acc, err) for eps, (acc, err) in zip(self.EPS, self.pooled[name])]
                result = _slope(points)
                if result is None:
                    return _check(False, "fewer than two points with events")
                slope, stderr = result
                allowed = self.SLOPE_TOLERANCE + self.SLOPE_SIGMAS * stderr
                self.fits[name] = {
                    "slope": slope, "stderr": stderr,
                    "within_gate_band": abs(slope - order) <= self.SLOPE_TOLERANCE,
                }
                return _check(abs(slope - order) <= allowed,
                              f"pooled slope {slope:.3f} not within {order} +- {allowed:.3f}")

            rec.attempt(f"slope fit {name}", fit)

    def summary(self) -> dict[str, Any]:
        return {"trials": self.trials, "slopes": self.fits}


class ScheduleVerify(Workload):
    """The design -> verify -> simulate flow of demos/schedule_design.py, scaled up."""

    SIZES = (9, 18, 60, 240, 600)
    AUDITED = (60, 240, 600)
    DEGREE = 3
    GIRTH = 6
    SENS_SIZE, SENS_WEIGHT, SENS_REQ = 240, 3, 3
    MUW_SIZES, MUW_WEIGHT_MAX = (9, 18), 6
    MC_SIZE, MC_EPS, MC_TRIALS, MC_BLOCK = 60, 1e-3, 1 << 15, 1 << 14
    TAIL_PERCENTILE = 100  # about 10 passes of 3-4 s: no percentile keeps 10 above it

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.oracle = _load_oracle()
        self.codes = {name: inner_codes.load_named_code(name) for name in ("steane", "rm15")}
        self.first: dict[str, Any] = {}  # pass-0 results, which later passes must repeat
        self.trials = 0

    def info(self) -> dict[str, Any]:
        sites = self.MC_SIZE * (1 + 2 * STEANE.params.n_q)
        return {
            **super().info(),
            "block_size": self.MC_BLOCK,
            "trials_per_call": self.MC_TRIALS,
            "dense_draw_bytes_per_block": {
                f"exact a_n={self.MC_SIZE} ({sites} sites)": dense_draw_bytes(self.MC_BLOCK, sites)
            },
        }

    def _same_as_first(self, key: str, value: Any) -> list[tuple[str, str]]:
        first = self.first.setdefault(key, value)
        return _check(first == value, f"{key} differs from the first pass")

    def run_pass(self, p: int, rec: Recorder) -> None:
        schedules: dict[int, OuterCode] = {}
        d, g = self.DEGREE, self.GIRTH

        for a_n in self.SIZES:
            def build(a_n=a_n):
                code = rec.call(outer_codes.build_biregular, a_n, d, d, g, self.seed)
                schedules[a_n] = code
                shape_ok = (code.num_bits, code.num_checks) == (a_n, a_n)
                return (_check(shape_ok, f"a_n={a_n}: shape {code.num_checks}x{code.num_bits}")
                        + self._same_as_first(f"schedule a_n={a_n}", code.matrix.row_bits))

            rec.attempt(f"build_biregular a_n={a_n}", build)
        if len(schedules) < len(self.SIZES):
            return

        for a_n in self.AUDITED:
            code = schedules[a_n]

            def audit(code=code):
                return _check(rec.call(code.degree_audit) is True, "degree audit failed")

            def tanner_girth(code=code):
                value = rec.call(outer_codes.girth, code)
                return _check(value >= g, f"girth {value} < {g}")

            def rank(code=code, a_n=a_n):
                r = rec.call(gf2.rank2, code.matrix)
                return (_check(0 < r <= a_n, f"rank {r} out of range")
                        + self._same_as_first(f"rank a_n={a_n}", r))

            def dense(code=code, a_n=a_n):
                arr = rec.call(code.matrix.to_array)
                row0 = code.matrix.row_bits[0]
                ok = (arr.shape == (a_n, a_n)
                      and bool((arr.sum(axis=0) == d).all()) and bool((arr.sum(axis=1) == d).all())
                      and all(int(arr[0, j]) == (row0 >> j) & 1 for j in range(a_n)))
                return _check(ok, "to_array disagrees with the packed rows or the degrees")

            rec.attempt(f"degree_audit a_n={a_n}", audit)
            rec.attempt(f"girth a_n={a_n}", tanner_girth)
            rec.attempt(f"rank2 a_n={a_n}", rank)
            rec.attempt(f"to_array a_n={a_n}", dense)

        def sensitivity():
            # Girth >= 6 means two columns share at most one check, so every
            # pattern of weight <= 3 violates at least 3 checks.
            ok, witness = rec.call(
                outer_codes.check_sensitivity, schedules[self.SENS_SIZE].matrix,
                self.SENS_WEIGHT, self.SENS_REQ,
            )
            return _check(ok is True and witness is None, f"witness {witness}")

        rec.attempt(f"check_sensitivity a_n={self.SENS_SIZE}", sensitivity)

        for a_n in self.MUW_SIZES:
            def muw(a_n=a_n):
                instance = fault_sim.ProtocolInstance(STEANE, schedules[a_n], strict=False)
                weight = rec.call(fault_sim.min_undetected_weight, instance, self.MUW_WEIGHT_MAX)
                self.first.setdefault(f"instance a_n={a_n}", instance)
                return self._same_as_first(f"min_undetected_weight a_n={a_n}", weight)

            rec.attempt(f"min_undetected_weight a_n={a_n}", muw)

        for name, code in self.codes.items():
            def validate(code=code, name=name):
                report = rec.call(inner_codes.validate_code, code)
                return _check(report.all_passed and report.measured_distance == 3,
                              f"{name}: {report}")

            rec.attempt(f"validate_code {name}", validate)

        def simulate():
            instance = fault_sim.ProtocolInstance(STEANE, schedules[self.MC_SIZE], strict=False)
            report = rec.call(
                fault_sim.monte_carlo, instance, self.MC_EPS, self.MC_TRIALS, self.seed + p,
                mode="exact", workers=WORKERS, block_size=self.MC_BLOCK,
            )
            self.trials += report.trials
            sites = instance.fault_sites
            return (_check(sites == self.MC_SIZE * (1 + 2 * STEANE.params.n_q), f"{sites} fault sites")
                    + _counts_ok(report, self.MC_TRIALS))

        rec.attempt(f"monte_carlo exact a_n={self.MC_SIZE}", simulate)

    def finish(self, rec: Recorder) -> None:
        # The oracle enumerates all 2^a_n data patterns (about 10 s at a_n=18),
        # so it runs once per run, after the timed passes.
        for a_n in self.MUW_SIZES:
            def compare(a_n=a_n):
                instance = self.first[f"instance a_n={a_n}"]
                expected = self.oracle(instance, self.MUW_WEIGHT_MAX)
                got = self.first[f"min_undetected_weight a_n={a_n}"]
                return _check(got == expected, f"a_n={a_n}: enumerator {got}, oracle {expected}")

            rec.attempt(f"oracle_min_weight a_n={a_n}", compare)

    def summary(self) -> dict[str, Any]:
        return {
            "trials": self.trials,
            "min_undetected_weight": {
                k.split()[-1]: v for k, v in self.first.items() if k.startswith("min_undetected")
            },
        }


def _load_oracle() -> Callable:
    """The independent weight oracle from the test suite's conftest."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("msdistill_test_oracles", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.oracle_min_weight


# Probability fields of the CLI's JSON output, as log10 values (must be <= 0).
_LOG10_PROBABILITIES = {
    "log10_eps_out", "log10_success_prob", "log10_required_input_eps", "computed_log10_eps_out",
}


def _soundness(node: Any, where: str = "results") -> list[tuple[str, str]]:
    """Probabilities above 1 anywhere in a CLI result."""
    problems: list[tuple[str, str]] = []
    if isinstance(node, dict):
        for key, value in node.items():
            if key in _LOG10_PROBABILITIES and isinstance(value, (int, float)) and value > 0:
                problems.append(("soundness", f"{where}.{key} = {value} (probability above 1)"))
            elif key == "neg_log10_eps" and isinstance(value, (int, float)) and value < 0:
                problems.append(("soundness", f"{where}.{key} = {value} (probability above 1)"))
            else:
                problems.extend(_soundness(value, f"{where}.{key}"))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            problems.extend(_soundness(value, f"{where}[{i}]"))
    return problems


def _reject_constant(token: str) -> Any:
    raise ValueError(f"non-standard JSON token {token}")


def _within(value: float, published: float, factor: float) -> bool:
    return published / factor <= value <= published * factor


# Reference values come from the paper's published numbers, as stated in the
# acceptance gate (tests/test_acceptance.py), never from this program's output.
def _gv_rows(rows: list) -> bool:
    by_n = {r["n"]: r for r in rows}
    big = by_n.get(8104, {})
    return (sorted(by_n) == list(range(8000, 8201))
            and (big.get("k_single"), big.get("d")) == (8002, 9)
            and all(r["gamma"] > 1 for r in rows if r["status"] == "ok"))


def _rate(published: float, factor: float) -> Callable[[Any], bool]:
    return lambda r: _within(10.0 ** r["log10_rate"], published, factor)


def _chain_eps(published: float) -> Callable[[Any], bool]:
    # the pre-distillation stage's output error, e.g. 1.18e-7 after 3 rounds
    return lambda r: _within(10.0 ** r["stages"][0]["log10_eps_out"], published, 1.01)


def _both(*checks: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda r: all(c(r) for c in checks)


def _compare(rows: list) -> bool:
    chain = {r["label"]: r for r in rows if r["series"] == "repeated_15to1"}
    floor = [r for r in rows if r["series"] == "constant_overhead"]
    return (_within(10.0 ** -chain["3"]["neg_log10_eps"], 1.18e-7, 1.01)
            and bool(floor) and all(_within(10.0 ** r["log10_rate"], 9.28e-8, 1.005) for r in floor))


def _table_s1(rows: list) -> bool:
    tolerance = {"(3;1)": 1.3, "(4;1)": 1.1}
    return (sorted(r["label"] for r in rows) == sorted(tolerance)
            and all(_within(r["rate_ratio"], 1.0, tolerance[r["label"]]) for r in rows))


PROTOCOL_CALLS: tuple[tuple[list[str], Callable[[Any], bool] | None], ...] = (
    (["gv-search", "--n-min", "8000", "--n-max", "8200"], _gv_rows),
    (["analyze", "--inner", "149,117,5", "--pre-rounds", "3", "--success-eps", "required"],
     _both(_rate(6.6e-6, 1.3), _chain_eps(1.18e-7))),
    (["analyze", "--inner", "149,117,5", "--pre-rounds", "3", "--success-eps", "achieved"], None),
    (["analyze", "--inner", "8104,8002,9", "--pre-rounds", "4", "--success-eps", "required"],
     _rate(2.5e-7, 1.1)),
    (["analyze", "--inner", "8104,8002,9", "--pre-rounds", "4", "--success-eps", "achieved"], None),
    # the known defect of ROADMAP item 4: log10_eps_out 341 under "achieved"
    (["analyze", "--inner", "8104,8002,9", "--pre-rounds", "1", "--success-eps", "achieved"], None),
    (["search", "--rate-floor-log10", "-7.0324"],
     lambda r: r["report"]["log10_rate"] >= -7.0324),
    (["compare"], _compare),
    (["table-s1"], _table_s1),
    (["validate-code", "--code", "rm15"],
     lambda r: r["all_passed"] is True and r["measured_distance"] == 3),
)


class ProtocolEval(Workload):
    """In-process msdistill.cli.main calls, each replayed from its output and byte-compared."""

    TAIL_PERCENTILE = 95  # about 300 passes

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)  # the seed sets the order of calls in each pass
        self.tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
        self.tmp.mkdir(parents=True, exist_ok=True)

    def info(self) -> dict[str, Any]:
        return {**super().info(), "cli_calls_per_pass": len(PROTOCOL_CALLS)}

    def run_pass(self, p: int, rec: Recorder) -> None:
        order = list(range(len(PROTOCOL_CALLS)))
        self.rng.shuffle(order)
        for index in order:
            argv, check = PROTOCOL_CALLS[index]

            def body(index=index, argv=argv, check=check):
                first = self.tmp / f"{index}.json"
                second = self.tmp / f"{index}.replay.json"
                rc = rec.call(cli.main, argv + ["--output", str(first)])
                if rc != cli.EXIT_OK:
                    return [("reference", f"exit code {rc}")]
                rc = rec.call(cli.main, [argv[0], "--config", str(first), "--output", str(second)])
                if rc != cli.EXIT_OK:
                    return [("reference", f"replay exit code {rc}")]
                text = first.read_bytes()
                problems = _check(text == second.read_bytes(), "replay differs")
                try:
                    doc = json.loads(text, parse_constant=_reject_constant)
                except ValueError as exc:
                    return problems + [("soundness", str(exc))]
                problems += _soundness(doc["results"])
                if check is not None and not check(doc["results"]):
                    problems.append(("reference", "result differs from the published reference"))
                return problems

            rec.attempt(" ".join(argv), body)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it


WORKLOADS = {"mc_sweep": McSweep, "schedule_verify": ScheduleVerify, "protocol_eval": ProtocolEval}


def machine() -> dict[str, Any]:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workers": WORKERS,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--t0", type=float, required=True, help="CLOCK_MONOTONIC at spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if Path(msdistill.__file__).resolve().parent != SRC / "msdistill":
        print(f"msdistill imported from {msdistill.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
    out: dict[str, Any] = {"setup_s": setup_s}
    try:
        if not args.setup_only:
            out.update(measure(workload, args))
    finally:
        workload.close()
    print(json.dumps(out))
    return 0


def measure(workload: Workload, args: argparse.Namespace) -> dict[str, Any]:
    rec = Recorder()
    tracer = Tracer() if args.trace else None
    min_passes = 2 if tracer else 1  # a traced run needs one pass of each kind
    untraced: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    p = 0
    while p < min_passes or time.perf_counter() - start < args.seconds:
        rec.pass_s = 0.0
        if tracer is not None and p % 2 == 1:
            with tracer.traced_pass(p):
                workload.run_pass(p, rec)
            traced.append(rec.pass_s)
        else:
            workload.run_pass(p, rec)
            untraced.append(rec.pass_s)
        p += 1
    workload.finish(rec)

    result: dict[str, Any] = {
        "pass_s": untraced,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "correct": rec.correct,
        "failures": rec.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine(),
        "workload_info": workload.info(),
        "summary": workload.summary(),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(untraced, traced)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(str(path))
        result["spans_file"] = str(path.relative_to(ROOT))
    return result


if __name__ == "__main__":
    sys.exit(main())

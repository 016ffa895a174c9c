"""msdistill benchmark: run a workload, check its outputs, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload mc_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

Each workload runs in its own child process (perfbench/workloads.py), closed
loop, with at most two monte_carlo worker threads. ``setup_s`` is the median
over SETUP_SAMPLES process starts (the measured run plus set-up-only starts)
of the time from spawning the process to its first timed operation.

With ``--trace 0`` the last line of output is one JSON object holding
``correct``, ``attempted``, ``failed`` and every end-to-end metric named in
BENCHMARK.json; with ``--trace 1`` it holds every per-layer metric instead.
The lines above it give the same numbers with units, the machine and the run.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from tracer import moves

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "workloads.py"
SETUP_SAMPLES = 11
TIME_LIMIT_S = 170.0  # the whole command must end within 180 s
TAIL_BEYOND = 10  # a tail percentile should keep at least this many passes above it
# glibc gives each new thread its own malloc arena, up to 8 per core, and
# monte_carlo starts fresh worker threads on every call. Which arenas they
# land in then swings peak RSS by up to 30% from run to run. Capping the
# arenas at the worker count keeps peak_rss_mb steady and leaves pass times
# unchanged.
CHILD_ENV = dict(os.environ, MALLOC_ARENA_MAX="2")


class BenchError(RuntimeError):
    pass


def _spawn(args: list[str], timeout: float) -> dict[str, Any]:
    """Run one child to completion and return its last output line as JSON."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(WORKER), *args, "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(args)}: no result within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(args)}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail(values: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile of the values, and how many values lie above it."""
    ordered = sorted(values)
    k = max(math.ceil(percentile / 100.0 * len(ordered)) - 1, 0)
    return ordered[k], len(ordered) - 1 - k


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict[str, Any]:
    common = ["--workload", name, "--seed", str(seed)]
    setups = []
    for _ in range(0 if trace else SETUP_SAMPLES - 1):  # a traced run reports no setup_s
        probe = _spawn(common + ["--seconds", "0", "--setup-only"], deadline - time.monotonic())
        setups.append(probe["setup_s"])
    raw = _spawn(common + ["--seconds", repr(seconds), "--trace", str(trace)],
                 deadline - time.monotonic())
    setups.append(raw["setup_s"])

    passes = raw["pass_s"]
    tail_pct = raw["workload_info"]["tail_percentile"]
    tail_s, beyond = tail(passes, tail_pct)
    e2e = {
        "setup_s": statistics.median(setups),
        "pass_s_p50": statistics.median(passes),
        "pass_s_mean": statistics.fmean(passes),
        "pass_s_tail": tail_s,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    trials = raw["summary"].get("trials", 0)
    notes = {
        "setup_s": f"median of {len(setups)} process starts",
        "pass_s_p50": f"{len(passes)} untraced passes",
        "pass_s_mean": f"{len(passes)} untraced passes",
        "pass_s_tail": f"p{tail_pct:g} of {len(passes)} passes, {beyond} above it"
                       + ("" if beyond >= TAIL_BEYOND or tail_pct == 100 else
                          f"; fewer than {TAIL_BEYOND}"),
        "peak_rss_mb": "measured, workload process",
    }
    extra = {"error_rate": (raw["failed"] / raw["attempted"], "ratio",
                            f"{raw['failed']} of {raw['attempted']} operations failed")}
    if trials and not trace:
        extra["trials_per_s"] = (trials / sum(passes), "1/s",
                                 f"{trials} Monte Carlo trials over {sum(passes):.3f} s of passes")
    return {"raw": raw, "e2e": e2e, "notes": notes, "extra": extra}


def _print_run(name: str, seed: int, seconds: float, trace: int, res: dict[str, Any],
               spec: dict[str, Any]) -> None:
    raw = res["raw"]
    print(f"# workload {name}: seed={seed} seconds={seconds:g} trace={trace}")
    print(f"# machine: {json.dumps(raw['machine'], sort_keys=True)}")
    print(f"# workload info: {json.dumps(raw['workload_info'], sort_keys=True)}")
    if raw["summary"]:
        print(f"# checks: {json.dumps(raw['summary'], sort_keys=True)}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if not trace:
        for key, value in res["e2e"].items():
            print(f"{key:<24} {value:>16.6g} {units.get(key, 's'):<6} ({res['notes'][key]})")
    for key, (value, unit, note) in res["extra"].items():
        print(f"{key:<24} {value:>16.6g} {unit:<6} ({note})")
    if trace:
        for key, value in sorted(raw["layers"].items()):
            print(f"{key:<48} {value:>14.6g} {units.get(key, ''):<6} moves: {moves(key)}")
        print(f"# spans written to {raw['spans_file']}")
    for label, (count, message) in sorted(raw["failures"].items()):
        print(f"# failed {count}x: {label}: {message}")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "msdistill" / "__init__.py").is_file():
        print(f"no msdistill sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    wanted = names if args.workload == "all" else [args.workload]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.monotonic() + TIME_LIMIT_S * len(wanted)
    summary: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wanted:
        try:
            res = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        _print_run(name, args.seed, args.seconds, args.trace, res, spec)
        values = res["raw"]["layers"] if args.trace else res["e2e"]
        missing = [m["name"] for m in listed if m["name"] not in values]
        if missing:
            print(f"benchmark failed: {name} did not produce {missing}", file=sys.stderr)
            return 1
        prefix = "" if len(wanted) == 1 else f"{name}."
        for m in listed:
            summary["metrics"][prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        summary["correct"] = summary["correct"] and res["raw"]["correct"]
        summary["attempted"] += res["raw"]["attempted"]
        summary["failed"] += res["raw"]["failed"]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span tracing for traced benchmark runs, installed from outside the program.

Wrappers replace the public functions of each msdistill layer in every module
that holds a reference to them: the defining module's attribute and each name a
caller imported (for example both ``msdistill.pipeline.evaluate`` and
``msdistill.cli.evaluate``). Spans are kept in memory as
``(name, start, end, parent)`` and written out when the run ends. Nothing is
added to the program itself, so untraced runs measure the program unchanged.

Wrapped calls all run on the calling thread: ``monte_carlo``'s worker threads
execute only the private block kernel, which is not wrapped. One span stack
is therefore enough.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import statistics
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

LAYERS = (
    "gf2", "logdomain", "inner_codes", "outer_codes", "analytics",
    "pipeline", "comparison", "fault_sim", "cli",
)

# (defining module, attribute; a dotted attribute is a method). Each becomes a
# span named "<layer>.<function>".
SPANNED = (
    ("msdistill.gf2", "rank2"),
    ("msdistill.gf2", "mul2"),
    ("msdistill.gf2", "is_self_orthogonal"),
    ("msdistill.gf2", "row_space"),
    ("msdistill.gf2", "BinMatrix.to_array"),
    ("msdistill.logdomain", "pow_one_minus"),
    ("msdistill.logdomain", "log10_binomial"),
    ("msdistill.inner_codes", "gv_params"),
    ("msdistill.inner_codes", "distance_family"),
    ("msdistill.inner_codes", "min_distance_css"),
    ("msdistill.inner_codes", "validate_code"),
    ("msdistill.outer_codes", "build_biregular"),
    ("msdistill.outer_codes", "girth"),
    ("msdistill.outer_codes", "check_sensitivity"),
    ("msdistill.outer_codes", "OuterCode.degree_audit"),
    ("msdistill.analytics", "predistill_chain"),
    ("msdistill.analytics", "output_error_bound"),
    ("msdistill.analytics", "required_intermediate_error"),
    ("msdistill.analytics", "overhead_exponent"),
    ("msdistill.pipeline", "evaluate"),
    ("msdistill.pipeline", "search_best"),
    ("msdistill.comparison", "figure2_dataset"),
    ("msdistill.comparison", "qag_baseline_rate"),
    ("msdistill.fault_sim", "monte_carlo"),
    ("msdistill.fault_sim", "min_undetected_weight"),
    ("msdistill.cli", "main"),
)

# Spans whose process CPU time is recorded as well (for cpu_per_wall).
CPU_TIMED = {"fault_sim.monte_carlo"}

# Which end-to-end metric each per-layer metric should move, on which workload.
MOVES = {
    "fault_sim.monte_carlo": "trials_per_s and pass_s_mean on mc_sweep; pass_s_mean on schedule_verify",
    "fault_sim.min_undetected_weight": "pass_s_mean on schedule_verify",
    "fault_sim": "pass_s_mean on mc_sweep and schedule_verify",
    "outer_codes": "pass_s_mean on schedule_verify",
    "gf2": "pass_s_mean on schedule_verify",
    "inner_codes.validate_code": "pass_s_mean on schedule_verify",
    "pipeline": "pass_s_mean on protocol_eval",
    "comparison": "pass_s_mean on protocol_eval",
    "analytics": "pass_s_mean on protocol_eval",
    "inner_codes": "pass_s_mean on protocol_eval",
    "logdomain": "pass_s_mean on protocol_eval",
    "cli": "pass_s_mean on protocol_eval",
    "trace": "none: cost of the traced run itself",
}


def moves(metric: str) -> str:
    """The end-to-end metric a per-layer metric should move (longest prefix wins)."""
    parts = metric.split(".")
    for end in range(len(parts), 0, -1):
        key = ".".join(parts[:end])
        if key in MOVES:
            return MOVES[key]
    return ""


def _arg(args: tuple, kwargs: dict, index: int, name: str, default: Any = None) -> Any:
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _monte_carlo(counts, args, kwargs, result, wall, cpu) -> None:
    counts["fault_sim.monte_carlo.trials"] += result.trials
    counts["fault_sim.monte_carlo.site_draws"] += result.trials * args[0].fault_sites
    counts["fault_sim.monte_carlo.accepted"] += result.accepted
    counts["fault_sim.monte_carlo.events"] += result.erroneous_accepted
    counts["fault_sim.monte_carlo.cpu_s"] += cpu


def _build_biregular(counts, args, kwargs, result, wall, cpu) -> None:
    counts[f"outer_codes.build_biregular.a_n{args[0]}.busy_s"] += wall


def _check_sensitivity(counts, args, kwargs, result, wall, cpu) -> None:
    # Exhaustive mode visits every pattern up to d_tilde when it finds no
    # witness, so the count is exact whenever the verdict is True.
    matrix, d_tilde = args[0], args[1]
    if _arg(args, kwargs, 3, "mode", "exhaustive") == "exhaustive" and result[0]:
        counts["outer_codes.check_sensitivity.patterns"] += sum(
            math.comb(matrix.cols, j) for j in range(1, d_tilde + 1)
        )


def _to_array(counts, args, kwargs, result, wall, cpu) -> None:
    counts["gf2.to_array.entries"] += args[0].rows * args[0].cols


def _search_best(counts, args, kwargs, result, wall, cpu) -> None:
    inner = _arg(args, kwargs, 1, "inner_candidates")
    rounds = _arg(args, kwargs, 2, "pre_rounds")
    counts["pipeline.search_best.candidates"] += len(inner) * len(set(rounds))


HOOKS: dict[str, Callable[..., None]] = {
    "fault_sim.monte_carlo": _monte_carlo,
    "outer_codes.build_biregular": _build_biregular,
    "outer_codes.check_sensitivity": _check_sensitivity,
    "gf2.to_array": _to_array,
    "pipeline.search_best": _search_best,
}


class Tracer:
    """Installs and removes the wrappers, and holds spans and counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.passes: list[tuple[int, int, int]] = []  # (pass, first span, end span)
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ wrappers

    def _span(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = HOOKS.get(name)
        cpu_timed = name in CPU_TIMED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            cpu0 = time.process_time() if cpu_timed else 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.process_time() - cpu0 if cpu_timed else 0.0
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(counts, args, kwargs, result, end - start, cpu)
            return result

        return wrapper

    def _counted_coerce(self, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def coerce(cls, x):
            counts["logdomain.LogScalar.coerce.calls"] += 1
            return fn(cls, x)

        return coerce

    def _counted_combinations(self) -> Callable:
        counts = self.counts

        def combinations(iterable, r):
            # supports drawn by fault_sim's low-weight enumerator
            for support in itertools.combinations(iterable, r):
                counts["fault_sim.min_undetected_weight.patterns"] += 1
                yield support

        return combinations

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every SPANNED function wherever an msdistill module holds it."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "msdistill" or n.startswith("msdistill."))
        ]
        for module_name, attr in SPANNED:
            name = module_name.rsplit(".", 1)[1] + "." + attr.rsplit(".", 1)[-1]
            owner = sys.modules[module_name]
            if "." in attr:  # a method: patch the class once
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, method, self._span(name, cls.__dict__[method]))
                continue
            original = getattr(owner, attr)
            wrapper = self._span(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        log_scalar = sys.modules["msdistill.logdomain"].LogScalar
        original = log_scalar.__dict__["coerce"]
        self._set(log_scalar, "coerce", classmethod(self._counted_coerce(original.__func__)))
        self._set(sys.modules["msdistill.fault_sim"], "combinations", self._counted_combinations())

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextlib.contextmanager
    def traced_pass(self, index: int) -> Iterator["Tracer"]:
        """Wrappers installed for the duration of one pass."""
        first = len(self.spans)
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
            self.passes.append((index, first, len(self.spans)))

    # ------------------------------------------------------------- results

    def self_times(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """(busy, self, calls) per span name; self = span minus its children."""
        child = [0.0] * len(self.spans)
        busy: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, parent in self.spans:
            busy[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            own[name] += (end - start) - child[index]
        return busy, own, calls

    def layer_metrics(self, untraced_s: list[float], traced_s: list[float]) -> dict[str, float]:
        """Per-layer metrics, as means per traced pass, plus the tracing overhead."""
        n = len(traced_s)
        busy, own, calls = self.self_times()
        c = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den > 0 else 0.0

        mc_busy = busy["fault_sim.monte_carlo"]
        out = {
            "fault_sim.monte_carlo.calls": calls["fault_sim.monte_carlo"] / n,
            "fault_sim.monte_carlo.busy_s": mc_busy / n,
            "fault_sim.monte_carlo.trials": c["fault_sim.monte_carlo.trials"] / n,
            "fault_sim.monte_carlo.site_draws": c["fault_sim.monte_carlo.site_draws"] / n,
            "fault_sim.monte_carlo.site_draws_per_s": ratio(c["fault_sim.monte_carlo.site_draws"], mc_busy),
            "fault_sim.monte_carlo.cpu_per_wall": ratio(c["fault_sim.monte_carlo.cpu_s"], mc_busy),
            "fault_sim.monte_carlo.accept_ratio": ratio(
                c["fault_sim.monte_carlo.accepted"], c["fault_sim.monte_carlo.trials"]
            ),
            "fault_sim.monte_carlo.events": c["fault_sim.monte_carlo.events"] / n,
            "fault_sim.min_undetected_weight.busy_s": busy["fault_sim.min_undetected_weight"] / n,
            "fault_sim.min_undetected_weight.patterns": c["fault_sim.min_undetected_weight.patterns"] / n,
            "outer_codes.girth.busy_s": busy["outer_codes.girth"] / n,
            "outer_codes.check_sensitivity.busy_s": busy["outer_codes.check_sensitivity"] / n,
            "outer_codes.check_sensitivity.patterns": c["outer_codes.check_sensitivity.patterns"] / n,
            "outer_codes.check_sensitivity.patterns_per_s": ratio(
                c["outer_codes.check_sensitivity.patterns"], busy["outer_codes.check_sensitivity"]
            ),
            "gf2.to_array.busy_s": busy["gf2.to_array"] / n,
            "gf2.to_array.entries_per_s": ratio(c["gf2.to_array.entries"], busy["gf2.to_array"]),
            "gf2.rank2.busy_s": busy["gf2.rank2"] / n,
            "inner_codes.validate_code.busy_s": busy["inner_codes.validate_code"] / n,
            "inner_codes.distance_family.busy_s": busy["inner_codes.distance_family"] / n,
            "pipeline.evaluate.calls": calls["pipeline.evaluate"] / n,
            "pipeline.evaluate.busy_s": busy["pipeline.evaluate"] / n,
            "pipeline.search_best.busy_s": busy["pipeline.search_best"] / n,
            "pipeline.search_best.candidates": c["pipeline.search_best.candidates"] / n,
            "comparison.figure2_dataset.busy_s": busy["comparison.figure2_dataset"] / n,
            "analytics.predistill_chain.calls": calls["analytics.predistill_chain"] / n,
            "analytics.predistill_chain.busy_s": busy["analytics.predistill_chain"] / n,
            "logdomain.LogScalar.coerce.calls": c["logdomain.LogScalar.coerce.calls"] / n,
        }
        for a_n in (60, 240, 600):
            key = f"outer_codes.build_biregular.a_n{a_n}.busy_s"
            out[key] = c[key] / n
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for name, v in own.items() if name.startswith(layer + ".")
            ) / n
        out["trace.spans"] = len(self.spans) / n
        out["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
        return out

    def write(self, path: str) -> None:
        """Write every span, grouped by traced pass, as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "passes": [list(p) for p in self.passes],
                    "spans": [list(s) for s in self.spans],
                },
                fh,
            )


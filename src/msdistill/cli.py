"""Command-line front end for code search, protocol evaluation, and simulation.

Every run emits its tool version and fully resolved configuration alongside the
results, so any output file can be replayed byte-for-byte with
``msdistill <subcommand> --config <output.json>``.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Sequence

from . import __version__
from .analytics import overhead_exponent, predistill_chain
from .comparison import figure2_dataset, qag_baseline_rate
from .fault_sim import (
    ProtocolInstance,
    fit_error_order,
    make_single_check_instance,
    monte_carlo,
)
from .gf2 import BinMatrix
from .inner_codes import (
    CssCodeParams,
    WeaklySelfDualCode,
    distance_family,
    gv_params,
    ln_rule_distance,
    load_named_code,
    validate_code,
)
from .outer_codes import ConstructionError, OuterCode, build_biregular, check_sensitivity, girth
from .pipeline import (
    HadamardStep,
    PipelineReport,
    PreDistillation,
    ProtocolSpec,
    evaluate,
    search_best,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2

# Convention flags echoed into every output so replays are self-describing.
CONVENTIONS = {
    "distance_rule": "largest odd <= floor(ln n)",
    "entropy_variant_default": "single",
    "baseline_block_length": "published",
    "log_base_outputs": 10,
}


class UsageError(Exception):
    pass


class InfeasibleError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _fmt_log10(value: Any) -> float | None:
    """Log-domain magnitudes rounded so serialization is platform-stable."""
    from .logdomain import LogScalar

    if isinstance(value, LogScalar):
        return None if value.is_zero() else round(value.log10, 6)
    return round(float(value), 6)


def _load_config(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    # A previous output file embeds its config; accept it directly as a replay.
    if "config" in data and "version" in data:
        data = data["config"]
    return data


def _resolve(args: argparse.Namespace, defaults: dict[str, Any]) -> dict[str, Any]:
    """Merge defaults, config-file values, and explicit flags (flags win)."""
    config = dict(defaults)
    if getattr(args, "config", None):
        file_values = _load_config(args.config)
        for key in defaults:
            if key in file_values:
                config[key] = file_values[key]
    for key in defaults:
        flag = getattr(args, key, None)
        if flag is not None:
            config[key] = flag
    return config


def _emit(
    args: argparse.Namespace,
    subcommand: str,
    config: dict[str, Any],
    results: Any,
    metadata: dict[str, Any] | None = None,
    csv_header: str | None = None,
    csv_rows: Sequence[str] | None = None,
) -> None:
    fmt = getattr(args, "format", None) or "json"
    if fmt == "json":
        doc = {
            "version": __version__,
            "subcommand": subcommand,
            "config": config,
            "conventions": CONVENTIONS,
            "metadata": metadata or {},
            "results": results,
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        if csv_header is None or csv_rows is None:
            raise UsageError(f"subcommand {subcommand} has no CSV form")
        lines = [
            f"# version={__version__}",
            f"# subcommand={subcommand}",
            f"# config={json.dumps(config, sort_keys=True)}",
            f"# conventions={json.dumps(CONVENTIONS, sort_keys=True)}",
        ]
        for key, value in sorted((metadata or {}).items()):
            lines.append(f"# {key}={value}")
        lines.append(csv_header)
        lines.extend(csv_rows)
        text = "\n".join(lines) + "\n"
    else:
        raise UsageError(f"unknown format {fmt!r}")

    out_path = getattr(args, "output", None)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _inner_params(config: dict[str, Any]) -> CssCodeParams:
    inner = config["inner"]
    if isinstance(inner, str):
        parts = [int(x) for x in inner.split(",")]
        if len(parts) != 3:
            raise UsageError("--inner expects n,k,d")
        inner = parts
    n, k, d = inner
    return CssCodeParams(n, k, d, odd_distance=(d % 2 == 1))


def _pipeline_spec(config: dict[str, Any]) -> ProtocolSpec:
    params = _inner_params(config)
    scale = config.get("scale") or params.k_q**params.d_q
    stages = (PreDistillation(config["pre_rounds"]), HadamardStep(params, scale))
    return ProtocolSpec(stages, config["eps0"])


def _report_record(report: PipelineReport) -> dict[str, Any]:
    p, r = report.label
    return {
        "label": f"({p};{r})",
        "log10_eps_out": _fmt_log10(report.eps_out),
        "log10_rate": _fmt_log10(report.effective_rate),
        "log10_success_prob": _fmt_log10(report.success_prob),
        "log10_inputs_per_output": _fmt_log10(report.total_inputs_per_output),
        "stages": [
            {
                "kind": s.kind,
                "log10_eps_out": _fmt_log10(s.eps_out),
                "log10_success_prob": _fmt_log10(s.success_prob),
                "log10_required_input_eps": (
                    None if s.required_input_eps is None else _fmt_log10(s.required_input_eps)
                ),
            }
            for s in report.stage_details
        ],
    }


# ---------------------------------------------------------------- subcommands


def cmd_gv_search(args: argparse.Namespace) -> int:
    config = _resolve(args, {"n_min": 0, "n_max": -1, "step": 1})
    n_min, n_max, step = config["n_min"], config["n_max"], config["step"]
    if n_min < 0 or step < 1:
        raise UsageError("need n_min >= 0 and step >= 1")

    rows = []
    for n in range(n_min, n_max + 1, step):
        d = ln_rule_distance(n) if n >= 2 else 0
        row: dict[str, Any] = {"n": n, "d": d}
        if d < 3:
            row["status"] = "infeasible"
        else:
            try:
                single = gv_params(n, d)
                double = gv_params(n, d, entropy_variant="double")
                row.update(
                    status="ok",
                    k_single=single.k_q,
                    k_double=double.k_q,
                    gamma=round(overhead_exponent(single), 6),
                )
            except ValueError as exc:
                row["status"] = f"infeasible: {exc}"
        rows.append(row)

    csv_rows = [
        ",".join(
            str(r.get(c, "")) for c in ("n", "k_single", "k_double", "d", "gamma", "status")
        )
        for r in rows
    ]
    _emit(args, "gv-search", config, rows,
          csv_header="n,k_single,k_double,d,gamma,status", csv_rows=csv_rows)
    return EXIT_OK


def cmd_validate_code(args: argparse.Namespace) -> int:
    config = _resolve(
        args, {"code": None, "matrix_file": None, "n": None, "k": None, "d": None}
    )
    if config["code"]:
        code = load_named_code(config["code"])
    elif config["matrix_file"]:
        for key in ("n", "k", "d"):
            if config[key] is None:
                raise UsageError("--matrix-file needs --n, --k and --d")
        with open(config["matrix_file"], "r", encoding="utf-8") as fh:
            matrix = BinMatrix.from_text(fh.read())
        params = CssCodeParams(
            config["n"], config["k"], config["d"], odd_distance=(config["d"] % 2 == 1)
        )
        code = WeaklySelfDualCode(params, matrix)
    else:
        raise UsageError("provide --code NAME or --matrix-file PATH")

    report = validate_code(code)
    results = {
        "params": str(code.params),
        "self_orthogonal": report.self_orthogonal,
        "k_consistent": report.k_consistent,
        "distance_ok": report.distance_ok,
        "measured_distance": report.measured_distance,
        "notes": list(report.notes),
        "all_passed": report.all_passed,
    }
    _emit(args, "validate-code", config, results)
    if not report.all_passed:
        raise InfeasibleError(f"validation failed for {code.params}")
    return EXIT_OK


def cmd_outer_build(args: argparse.Namespace) -> int:
    config = _resolve(
        args, {"a_n": None, "w": None, "s": None, "girth": 4, "seed": 0, "max_attempts": 40}
    )
    for key in ("a_n", "w", "s"):
        if config[key] is None:
            raise UsageError(f"--{key.replace('_', '-')} is required")
    try:
        code = build_biregular(
            config["a_n"], config["w"], config["s"], config["girth"], config["seed"],
            max_attempts=config["max_attempts"],
        )
    except (ValueError, ConstructionError) as exc:
        best = getattr(exc, "best_girth", None)
        raise InfeasibleError(
            f"{exc}" + ("" if best is None else f" (closest girth reached: {best})")
        ) from exc
    g = girth(code)
    results = {
        "a_n": code.num_bits,
        "m": code.num_checks,
        "girth": "inf" if math.isinf(g) else int(g),
        "code_text": code.to_text(),
    }
    _emit(args, "outer-build", config, results,
          csv_header="a_n,m,girth", csv_rows=[f"{results['a_n']},{results['m']},{results['girth']}"])
    return EXIT_OK


def cmd_check_sensitivity(args: argparse.Namespace) -> int:
    config = _resolve(
        args,
        {"matrix_file": None, "d_tilde": None, "s_req": None,
         "mode": "exhaustive", "samples": 20_000, "seed": 0},
    )
    for key in ("matrix_file", "d_tilde", "s_req"):
        if config[key] is None:
            raise UsageError(f"--{key.replace('_', '-')} is required")
    with open(config["matrix_file"], "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        matrix = OuterCode.from_text(text).matrix
    except ValueError:
        matrix = BinMatrix.from_text(text)
    try:
        ok, witness = check_sensitivity(
            matrix, config["d_tilde"], config["s_req"], config["mode"],
            samples=config["samples"], seed=config["seed"],
        )
    except ValueError as exc:
        raise InfeasibleError(str(exc)) from exc
    results: dict[str, Any] = {"sensitive": ok}
    if witness is not None:
        results["witness"] = {
            "pattern_bits": witness.pattern_bits,
            "weight": witness.weight,
            "violated_checks": witness.violated_checks,
        }
    _emit(args, "check-sensitivity", config, results)
    if not ok:
        raise InfeasibleError("sensitivity check failed; witness in output")
    return EXIT_OK


_PIPELINE_DEFAULTS = {
    "inner": None,
    "pre_rounds": 0,
    "scale": None,
    "eps0": 0.1,
    "success_eps": "required",
}


def cmd_analyze(args: argparse.Namespace) -> int:
    config = _resolve(args, _PIPELINE_DEFAULTS)
    if config["inner"] is None:
        raise UsageError("--inner n,k,d is required")
    spec = _pipeline_spec(config)
    report = evaluate(spec, success_eps=config["success_eps"])
    _emit(args, "analyze", config, _report_record(report),
          csv_header="label,log10_rate,log10_eps,log10_success",
          csv_rows=[report.csv_row()])
    return EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    config = _resolve(
        args,
        {"rate_floor_log10": None, "n_max": 10_000, "pre_rounds": [0, 1, 2, 3, 4, 5],
         "eps0": 0.1, "success_eps": "required"},
    )
    if config["rate_floor_log10"] is None:
        raise UsageError("--rate-floor-log10 is required")
    from .logdomain import LogScalar

    candidates = distance_family(config["n_max"])
    try:
        spec = search_best(
            LogScalar.from_log10(config["rate_floor_log10"]),
            candidates,
            config["pre_rounds"],
            eps0=config["eps0"],
            success_eps=config["success_eps"],
        )
    except ValueError as exc:
        raise InfeasibleError(str(exc)) from exc
    report = evaluate(spec, success_eps=config["success_eps"])
    inner = next(s.params for s in spec.stages if isinstance(s, HadamardStep))
    results = {
        "inner": [inner.n_q, inner.k_q, inner.d_q],
        "candidates_considered": len(candidates),
        "report": _report_record(report),
    }
    _emit(args, "search", config, results)
    return EXIT_OK


_DEFAULT_COMPARE_SPECS = [
    {"pre_rounds": 3, "inner": [149, 117, 5]},
    {"pre_rounds": 4, "inner": [8104, 8002, 9]},
]


def cmd_compare(args: argparse.Namespace) -> int:
    config = _resolve(
        args,
        {"pre_rounds_max": 6, "specs": _DEFAULT_COMPARE_SPECS,
         "eps_in": 0.1, "success_eps": "required"},
    )
    specs = []
    for entry in config["specs"]:
        merged = dict(_PIPELINE_DEFAULTS, eps0=config["eps_in"], **entry)
        specs.append(_pipeline_spec(merged))
    rows, metadata = figure2_dataset(
        pre_rounds_max=config["pre_rounds_max"],
        pipeline_specs=specs,
        eps_in=config["eps_in"],
        success_eps=config["success_eps"],
    )
    from .comparison import CSV_HEADER

    results = [
        {"series": r.series, "label": r.label,
         "neg_log10_eps": _fmt_log10(r.neg_log10_eps) if math.isfinite(r.neg_log10_eps) else "inf",
         "log10_rate": _fmt_log10(r.log10_rate)}
        for r in rows
    ]
    _emit(args, "compare", config, results, metadata=metadata,
          csv_header=CSV_HEADER, csv_rows=[r.csv_row() for r in rows])
    return EXIT_OK


def _build_instance(config: dict[str, Any]) -> ProtocolInstance:
    inner = load_named_code(config["inner"])
    kind = config["outer"]
    if kind == "identity":
        a_n = config["outer_size"]
        outer = OuterCode(BinMatrix.identity(a_n), 1, 1)
        return ProtocolInstance(inner, outer, strict=False)
    if kind == "single-check":
        return make_single_check_instance(inner, config["outer_size"])
    with open(kind, "r", encoding="utf-8") as fh:
        outer = OuterCode.from_text(fh.read())
    return ProtocolInstance(inner, outer, strict=False)


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _resolve(
        args,
        {"inner": "steane", "outer": "identity", "outer_size": 4,
         "eps": [3e-3], "trials": 100_000, "seed": 0,
         "mode": "idealized", "corruption": "erroneous",
         "workers": None, "block_size": 1 << 16},
    )
    instance = _build_instance(config)
    mc_kwargs = dict(
        mode=config["mode"], corruption=config["corruption"],
        workers=config["workers"], block_size=config["block_size"],
    )
    eps_values = config["eps"] if isinstance(config["eps"], list) else [config["eps"]]
    try:
        if len(eps_values) == 1:
            report = monte_carlo(
                instance, eps_values[0], config["trials"], config["seed"], **mc_kwargs
            )
            results: Any = report.to_json_dict()
            point, lo, hi = report.eps_out_total
            point_text = "" if point is None else f"{point:.6g}"  # no accepted trials
            csv_rows = [f"{eps_values[0]:.6g},{point_text},{lo:.6g},{hi:.6g}"]
        else:
            fit = fit_error_order(
                instance, eps_values, config["trials"], config["seed"], **mc_kwargs
            )
            results = {
                "slope": round(fit.slope, 6),
                "intercept": round(fit.intercept, 6),
                "points": [
                    {"eps": eps, "eps_out": out, "events": events}
                    for eps, out, events in fit.points
                ],
            }
            csv_rows = [f"{eps:.6g},{out:.6g},{events}" for eps, out, events in fit.points]
    except (ValueError, RuntimeError) as exc:
        raise InfeasibleError(
            f"{exc} (hint: shrink the instance, lower trials, or raise eps)"
        ) from exc
    _emit(args, "simulate", config, results,
          csv_header="eps,eps_out,ci_low_or_events,ci_high", csv_rows=csv_rows)
    return EXIT_OK


_TABLE_S1 = [
    # label, inner, pre_rounds, published rate, published log10 eps_out
    ("(3;1)", [149, 117, 5], 3, 6.6e-6, -15.0),
    ("(4;1)", [8104, 8002, 9], 4, 2.5e-7, -353.0),
]


def cmd_table_s1(args: argparse.Namespace) -> int:
    config = _resolve(args, {"eps0": 0.1, "success_eps": "required"})
    rows = []
    csv_rows = []
    for label, inner, p, pub_rate, pub_eps_log10 in _TABLE_S1:
        merged = dict(_PIPELINE_DEFAULTS, inner=inner, pre_rounds=p, eps0=config["eps0"])
        report = evaluate(_pipeline_spec(merged), success_eps=config["success_eps"])
        rate_log10 = report.effective_rate.log10
        rows.append(
            {
                "label": label,
                "inner": inner,
                "published_rate": pub_rate,
                "computed_log10_rate": _fmt_log10(rate_log10),
                "rate_ratio": round(10.0 ** (rate_log10 - math.log10(pub_rate)), 4),
                "published_log10_eps_out": pub_eps_log10,
                "computed_log10_eps_out": _fmt_log10(report.eps_out),
            }
        )
        csv_rows.append(
            f"{label},{pub_rate:.6g},{_fmt_log10(rate_log10)},"
            f"{pub_eps_log10},{_fmt_log10(report.eps_out)}"
        )
    _emit(args, "table-s1", config, rows,
          csv_header="label,published_rate,computed_log10_rate,"
                      "published_log10_eps_out,computed_log10_eps_out",
          csv_rows=csv_rows)
    return EXIT_OK


# ------------------------------------------------------------------- plumbing


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file (a previous output replays itself)")
    sub.add_argument("--output", help="write to this path instead of stdout")
    sub.add_argument("--format", choices=["json", "csv"], default=None)


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="msdistill", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("gv-search", help="existence-bound code parameter table")
    p.add_argument("--n-min", dest="n_min", type=int)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--step", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_gv_search)

    p = subs.add_parser("validate-code", help="check a shipped or user check matrix")
    p.add_argument("--code", help="library code name (steane, rm15)")
    p.add_argument("--matrix-file", dest="matrix_file")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--d", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_validate_code)

    p = subs.add_parser("outer-build", help="build a biregular check schedule")
    p.add_argument("--a-n", dest="a_n", type=int)
    p.add_argument("--w", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--girth", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-attempts", dest="max_attempts", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_outer_build)

    p = subs.add_parser("check-sensitivity", help="verify low-weight pattern coverage")
    p.add_argument("--matrix-file", dest="matrix_file")
    p.add_argument("--d-tilde", dest="d_tilde", type=int)
    p.add_argument("--s-req", dest="s_req", type=int)
    p.add_argument("--mode", choices=["exhaustive", "sampled"])
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_check_sensitivity)

    p = subs.add_parser("analyze", help="evaluate one multi-stage protocol")
    p.add_argument("--inner", help="n,k,d of the inner code")
    p.add_argument("--pre-rounds", dest="pre_rounds", type=int)
    p.add_argument("--scale", type=int)
    p.add_argument("--eps0", type=float)
    p.add_argument("--success-eps", dest="success_eps", choices=["required", "achieved"])
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("search", help="best protocol above a rate floor")
    p.add_argument("--rate-floor-log10", dest="rate_floor_log10", type=float)
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--pre-rounds", dest="pre_rounds", type=_int_list)
    p.add_argument("--eps0", type=float)
    p.add_argument("--success-eps", dest="success_eps", choices=["required", "achieved"])
    _add_common(p)
    p.set_defaults(func=cmd_search)

    p = subs.add_parser("compare", help="rate-vs-error comparison dataset")
    p.add_argument("--pre-rounds-max", dest="pre_rounds_max", type=int)
    p.add_argument("--eps-in", dest="eps_in", type=float)
    p.add_argument("--success-eps", dest="success_eps", choices=["required", "achieved"])
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = subs.add_parser("simulate", help="Monte Carlo fault injection")
    p.add_argument("--inner", help="library code name")
    p.add_argument("--outer", help="'identity', 'single-check', or a schedule file")
    p.add_argument("--outer-size", dest="outer_size", type=int)
    p.add_argument("--eps", type=_float_list, help="one value, or a comma list for a sweep")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--mode", choices=["idealized", "exact"])
    p.add_argument("--corruption", choices=["erroneous", "reject"])
    p.add_argument("--workers", type=int)
    p.add_argument("--block-size", dest="block_size", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("table-s1", help="published-vs-recomputed finite-size rows")
    p.add_argument("--eps0", type=float)
    p.add_argument("--success-eps", dest="success_eps", choices=["required", "achieved"])
    _add_common(p)
    p.set_defaults(func=cmd_table_s1)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

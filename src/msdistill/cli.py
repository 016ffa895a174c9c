"""Command-line front end for code search, protocol evaluation, and simulation.

Every run emits its tool version and fully resolved configuration alongside the
results, so any output file can be replayed byte-for-byte with
``msdistill <subcommand> --config <output.json>``.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from . import InfeasibleError, __version__
from .analytics import overhead_exponent
from .comparison import CSV_HEADER, figure2_dataset
from .fault_sim import (
    DEFAULT_BLOCK_SIZE, ProtocolInstance, fit_error_order, make_single_check_instance, monte_carlo,
)
from .gf2 import BinMatrix
from .inner_codes import (
    CssCodeParams, WeaklySelfDualCode, distance_family, gv_params, ln_rule_distance,
    load_named_code, validate_code,
)
from .logdomain import LogScalar
from .outer_codes import OuterCode, build_biregular, check_sensitivity
from .pipeline import (
    DEFAULT_INPUT_ERROR, PipelineReport, ProtocolSpec, default_scale_rule, evaluate, search_best,
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


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValueError(message)


# ------------------------------------------------------------- option kinds
#
# A kind reads an option's value from flag text (``parse``) and checks and
# converts a JSON config-file value (``load``), so both sources give one value.
# A kind without ``parse`` is read from a config file only and has no flag.


class Kind(NamedTuple):
    parse: Callable[[str], Any] | None
    load: Callable[[Any], Any]


def _json(
    types: tuple[type, ...], name: str, convert: Callable[[Any], Any] = lambda v: v
) -> Callable[[Any], Any]:
    """A loader that accepts JSON values of the given types only (never a bool)."""
    def load(value: Any) -> Any:
        if isinstance(value, bool) or not isinstance(value, types):
            raise ValueError(f"expected {name}, got {json.dumps(value)}")
        return convert(value)

    return load


def _list_of(item: Callable[[Any], Any]) -> Callable[[Any], list]:
    return _json((list,), "a list", lambda value: [item(x) for x in value])


def _comma_list(item: Callable[[str], Any]) -> Callable[[str], list]:
    def parse(text: str) -> list:
        return [item(x) for x in text.split(",") if x]

    parse.__name__ = f"{item.__name__} list"  # argparse names the kind in its errors
    return parse


_int = _json((int,), "an integer")
_float = _json((int, float), "a number", float)


def _nkd(value: Any) -> list[int]:
    """An inner code's n,k,d from flag text or a JSON list."""
    parts = [int(x) for x in value.split(",")] if isinstance(value, str) else _list_of(_int)(value)
    if len(parts) != 3:
        raise ValueError(f"expected n,k,d, got {json.dumps(value)}")
    return parts


def _as_given(value: Any) -> Any:
    _nkd(value)
    return value  # the config echoes n,k,d in the form it was given


_as_given.__name__ = "n,k,d"

INT = Kind(int, _int)
FLOAT = Kind(float, _float)
STR = Kind(str, _json((str,), "a string"))
INT_LIST = Kind(_comma_list(int), _list_of(_int))
EPS = Kind(_comma_list(float), lambda v: _list_of(_float)(v) if isinstance(v, list) else _float(v))
NKD = Kind(_as_given, _as_given)
SPECS = Kind(None, _list_of(_json((dict,), "a JSON object")))


class Option(NamedTuple):
    key: str
    default: Any
    kind: Kind
    help: str | None = None
    choices: tuple[str, ...] | None = None
    required: bool = False

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")


class Output(NamedTuple):
    results: Any
    metadata: dict[str, Any] | None = None
    csv_rows: Iterable[str] | None = None  # lazy: only ``--format csv`` consumes it
    failure: str | None = None  # the output is still written, then the run exits 2


class Command(NamedTuple):
    name: str
    help: str
    handler: Callable[[dict[str, Any]], Output]
    options: tuple[Option, ...]
    csv_header: str | None = None


def _resolve(
    command: Command, file_values: dict[str, Any], flags: dict[str, Any]
) -> dict[str, Any]:
    """Merge defaults, config-file values, and explicit flags (flags win).

    A config-file value goes through its flag's kind and choices; a null one,
    like an absent flag, leaves the option unset. A key the subcommand does
    not know is refused.
    """
    unknown = sorted(set(file_values) - {option.key for option in command.options})
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r}")
    config = {}
    for option in command.options:
        value = option.default
        if file_values.get(option.key) is not None:
            try:
                value = option.kind.load(file_values[option.key])
                if option.choices and value not in option.choices:
                    raise ValueError(f"{value!r} is not one of {', '.join(option.choices)}")
            except ValueError as exc:
                raise ValueError(f"config key {option.key!r}: {exc}") from None
        if flags.get(option.key) is not None:
            value = flags[option.key]
        if option.required and value is None:
            raise ValueError(f"{option.flag} is required")
        config[option.key] = value
    return config


def _load_config(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    # A previous output file embeds its config; accept it directly as a replay.
    if isinstance(data, dict) and "config" in data and "version" in data:
        data = data["config"]
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return data


def _emit(args: argparse.Namespace, command: Command, config: dict[str, Any], out: Output) -> None:
    if args.format == "csv":
        lines = [
            f"# version={__version__}",
            f"# subcommand={command.name}",
            f"# config={json.dumps(config, sort_keys=True)}",
            f"# conventions={json.dumps(CONVENTIONS, sort_keys=True)}",
        ]
        for key, value in sorted((out.metadata or {}).items()):
            lines.append(f"# {key}={value}")
        lines.append(command.csv_header)
        lines.extend(out.csv_rows)
        text = "\n".join(lines) + "\n"
    else:
        doc = {
            "version": __version__,
            "subcommand": command.name,
            "config": config,
            "conventions": CONVENTIONS,
            "metadata": out.metadata or {},
            "results": out.results,
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"

    if args.output:
        # Overwrite in place and cut only a longer old tail: a truncating open makes ext4
        # flush the file on close (auto_da_alloc), and the next such open waits for it.
        # /dev/null, pipes and ttys report size 0 and refuse ftruncate.
        data = text.encode("utf-8")
        with open(os.open(args.output, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            fh.write(data)
            if os.fstat(fh.fileno()).st_size > len(data):
                fh.truncate(len(data))
    else:
        sys.stdout.write(text)


def _fmt_log10(value: Any) -> float | None:
    """Log-domain magnitudes rounded so serialization is platform-stable.

    A non-finite value, such as the log10 of a zero, is written as null, and
    -0.0 as 0.0.
    """
    if isinstance(value, LogScalar):
        value = value.log10
    # adding 0.0 turns -0.0 into 0.0
    return round(float(value), 6) + 0.0 if math.isfinite(value) else None


def _pipeline_spec(config: dict[str, Any]) -> ProtocolSpec:
    n, k, d = _nkd(config["inner"])
    params = CssCodeParams(n, k, d)
    scale = default_scale_rule(params) if config["scale"] is None else config["scale"]
    return ProtocolSpec(config["pre_rounds"], params, scale, config["eps0"])


def _analyze_spec(values: dict[str, Any]) -> ProtocolSpec:
    """The protocol ``analyze`` would evaluate for these config values."""
    return _pipeline_spec(_resolve(COMMANDS["analyze"], values, {}))


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


_GV_COLUMNS = ("n", "k_single", "k_double", "d", "gamma", "status")


def _gv_row(n: int) -> dict[str, Any]:
    """One gv-search row; a block length the bound gives no code for is a status, not an exit."""
    d = ln_rule_distance(n) if n >= 2 else 0
    if d < 3:
        return {"n": n, "d": d, "status": "infeasible"}
    try:
        single = gv_params(n, d)
        double = gv_params(n, d, entropy_variant="double")
    except ValueError as exc:
        return {"n": n, "d": d, "status": f"infeasible: {exc}"}
    return {"n": n, "d": d, "status": "ok", "k_single": single.k_q, "k_double": double.k_q,
            "gamma": round(overhead_exponent(single), 6)}


def cmd_gv_search(config: dict[str, Any]) -> Output:
    n_min, n_max, step = config["n_min"], config["n_max"], config["step"]
    if n_min < 0 or step < 1:
        raise ValueError("need n_min >= 0 and step >= 1")
    rows = [_gv_row(n) for n in range(n_min, n_max + 1, step)]
    csv_rows = (",".join(str(r.get(c, "")) for c in _GV_COLUMNS) for r in rows)
    return Output(rows, csv_rows=csv_rows)


def cmd_validate_code(config: dict[str, Any]) -> Output:
    if config["code"]:
        if any(config[key] is not None for key in ("matrix_file", "n", "k", "d")):
            raise ValueError("--code takes no --matrix-file, --n, --k or --d")
        code = load_named_code(config["code"])
    elif config["matrix_file"]:
        if None in (config["n"], config["k"], config["d"]):
            raise ValueError("--matrix-file needs --n, --k and --d")
        with open(config["matrix_file"], "r", encoding="utf-8") as fh:
            matrix = BinMatrix.from_text(fh.read())
        params = CssCodeParams(config["n"], config["k"], config["d"])
        code = WeaklySelfDualCode(params, matrix)
    else:
        raise ValueError("provide --code NAME or --matrix-file PATH")

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
    failure = None if report.all_passed else f"validation failed for {code.params}"
    return Output(results, failure=failure)


def cmd_outer_build(config: dict[str, Any]) -> Output:
    code = build_biregular(
        config["a_n"], config["w"], config["s"], config["girth"], config["seed"],
        max_attempts=config["max_attempts"],
    )
    g = code.tanner_girth
    results = {
        "a_n": code.num_bits,
        "m": code.num_checks,
        "girth": "inf" if math.isinf(g) else int(g),
        "code_text": code.to_text(),
    }
    return Output(results, csv_rows=(f"{r['a_n']},{r['m']},{r['girth']}" for r in [results]))


def cmd_check_sensitivity(config: dict[str, Any]) -> Output:
    with open(config["matrix_file"], "r", encoding="utf-8") as fh:
        code = OuterCode.from_text(fh.read())
    ok, witness = check_sensitivity(code, config["d_tilde"], config["s_req"])
    results: dict[str, Any] = {"sensitive": ok}
    if witness is not None:
        results["witness"] = asdict(witness)
    return Output(results, failure=None if ok else "sensitivity check failed; witness in output")


def cmd_analyze(config: dict[str, Any]) -> Output:
    report = evaluate(_pipeline_spec(config), success_eps=config["success_eps"])
    return Output(_report_record(report), csv_rows=(r.csv_row() for r in [report]))


def cmd_search(config: dict[str, Any]) -> Output:
    candidates = distance_family(config["n_max"])
    spec = search_best(
        LogScalar.from_log10(config["rate_floor_log10"]),
        candidates,
        config["pre_rounds"],
        eps0=config["eps0"],
        success_eps=config["success_eps"],
    )
    report = evaluate(spec, success_eps=config["success_eps"])
    results = {
        "inner": [spec.inner.n_q, spec.inner.k_q, spec.inner.d_q],
        "candidates_considered": len(candidates),
        "report": _report_record(report),
    }
    return Output(results)


def cmd_compare(config: dict[str, Any]) -> Output:
    specs = []
    for i, entry in enumerate(config["specs"]):
        entry = dict(entry)  # an analyze config; its own eps0 wins over eps_in
        if entry.get("eps0") is None:
            entry["eps0"] = config["eps_in"]
        try:
            specs.append(_analyze_spec(entry))
        except ValueError as exc:
            raise ValueError(f"specs[{i}]: {exc}") from None
    rows, metadata = figure2_dataset(
        pre_rounds_max=config["pre_rounds_max"],
        pipeline_specs=specs,
        eps_in=config["eps_in"],
        success_eps=config["success_eps"],
    )
    results = [
        {"series": r.series, "label": r.label,
         "neg_log10_eps": _fmt_log10(r.neg_log10_eps),
         "log10_rate": _fmt_log10(r.log10_rate)}
        for r in rows
    ]
    return Output(results, metadata=metadata, csv_rows=(r.csv_row() for r in rows))


def _build_instance(config: dict[str, Any]) -> ProtocolInstance:
    inner = load_named_code(config["inner"])
    kind, a_n = config["outer"], config["outer_size"]
    if kind in ("identity", "single-check") and a_n < 1:
        raise ValueError("--outer-size must be >= 1")
    if kind == "identity":
        return ProtocolInstance(inner, OuterCode(BinMatrix.identity(a_n), 1, 1), strict=False)
    if kind == "single-check":
        return make_single_check_instance(inner, a_n)
    with open(kind, "r", encoding="utf-8") as fh:
        outer = OuterCode.from_text(fh.read())
    return ProtocolInstance(inner, outer, strict=False)


def cmd_simulate(config: dict[str, Any]) -> Output:
    eps_values = config["eps"] if isinstance(config["eps"], list) else [config["eps"]]
    if not eps_values:
        raise ValueError("--eps needs at least one value")
    instance = _build_instance(config)
    mc_kwargs = dict(
        mode=config["mode"], corruption=config["corruption"],
        workers=config["workers"], block_size=config["block_size"],
    )
    if len(eps_values) == 1:
        report = monte_carlo(instance, eps_values[0], config["trials"], config["seed"], **mc_kwargs)
        results: Any = report.to_json_dict()
        point, lo, hi = report.eps_out_total
        point_text = "" if point is None else f"{point:.6g}"  # no accepted trials
        csv_rows: Iterable[str] = (f"{eps:.6g},{point_text},{lo:.6g},{hi:.6g}"
                                   for eps in eps_values)
    else:
        fit = fit_error_order(instance, eps_values, config["trials"], config["seed"], **mc_kwargs)
        results = {
            "slope": round(fit.slope, 6),
            "intercept": round(fit.intercept, 6),
            "points": [
                {"eps": eps, "eps_out": out, "events": events} for eps, out, events in fit.points
            ],
        }
        csv_rows = (f"{eps:.6g},{out:.6g},{events}" for eps, out, events in fit.points)
    return Output(results, csv_rows=csv_rows)


_TABLE_S1 = [
    # label, inner, pre_rounds, published rate, published log10 eps_out
    ("(3;1)", [149, 117, 5], 3, 6.6e-6, -15.0),
    ("(4;1)", [8104, 8002, 9], 4, 2.5e-7, -353.0),
]


def cmd_table_s1(config: dict[str, Any]) -> Output:
    rows = []
    for label, inner, p, pub_rate, pub_eps_log10 in _TABLE_S1:
        spec = _analyze_spec({"inner": inner, "pre_rounds": p, "eps0": config["eps0"]})
        report = evaluate(spec, success_eps=config["success_eps"])
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
    csv_rows = (
        f"{r['label']},{r['published_rate']:.6g},{r['computed_log10_rate']},"
        f"{r['published_log10_eps_out']},{r['computed_log10_eps_out']}"
        for r in rows
    )
    return Output(rows, csv_rows=csv_rows)


# ---------------------------------------------------------------- the table
#
# Each subcommand and each of its options is declared once, here. The parser,
# the defaults and the checks on config-file values all come from this table.

_SEED = Option("seed", 0, INT, "random seed")
_EPS0 = Option("eps0", DEFAULT_INPUT_ERROR, FLOAT, "error rate of the raw input states")
_SUCCESS_EPS = Option("success_eps", "required", STR, "error rate the success probability "
                      "is evaluated at", choices=("required", "achieved"))
_MATRIX_FILE = Option("matrix_file", None, STR, "check matrix as rows of 0/1 text")

COMMANDS = {command.name: command for command in (
    Command("gv-search", "existence-bound code parameter table", cmd_gv_search, (
        Option("n_min", 0, INT, "first block length"),
        Option("n_max", -1, INT, "last block length"),
        Option("step", 1, INT, "block length step"),
    ), csv_header=",".join(_GV_COLUMNS)),
    Command("validate-code", "check a shipped or user check matrix", cmd_validate_code, (
        Option("code", None, STR, "library code name (steane, rm15)"),
        _MATRIX_FILE,
        Option("n", None, INT, "block length of the matrix file's code"),
        Option("k", None, INT, "logical qubits of the matrix file's code"),
        Option("d", None, INT, "claimed distance of the matrix file's code"),
    )),
    Command("outer-build", "build a biregular check schedule", cmd_outer_build, (
        Option("a_n", None, INT, "bits (columns) of the schedule", required=True),
        Option("w", None, INT, "bits per check (row weight)", required=True),
        Option("s", None, INT, "checks per bit (column weight)", required=True),
        Option("girth", 4, INT, "minimum Tanner-graph girth"),
        _SEED,
        Option("max_attempts", 40, INT, "construction retries"),
    ), csv_header="a_n,m,girth"),
    Command("check-sensitivity", "verify low-weight pattern coverage", cmd_check_sensitivity, (
        _MATRIX_FILE._replace(required=True),
        Option("d_tilde", None, INT, "largest pattern weight to cover", required=True),
        Option("s_req", None, INT, "checks each pattern must violate", required=True),
    )),
    Command("analyze", "evaluate one multi-stage protocol", cmd_analyze, (
        Option("inner", None, NKD, "n,k,d of the inner code", required=True),
        Option("pre_rounds", 0, INT, "15-to-1 rounds before the inner code"),
        Option("scale", None, INT, "outer scale factor A (default k**d)"),
        _EPS0,
        _SUCCESS_EPS,
    ), csv_header="label,log10_rate,log10_eps,log10_success"),
    Command("search", "best protocol above a rate floor", cmd_search, (
        Option("rate_floor_log10", None, FLOAT, "log10 of the lowest rate allowed", required=True),
        Option("n_max", 10_000, INT, "largest inner block length tried"),
        Option("pre_rounds", [0, 1, 2, 3, 4, 5], INT_LIST, "comma list of pre-round counts"),
        _EPS0,
        _SUCCESS_EPS,
    )),
    Command("compare", "rate-vs-error comparison dataset", cmd_compare, (
        Option("pre_rounds_max", 6, INT, "longest repeated 15-to-1 chain"),
        Option("specs", [{"pre_rounds": p, "inner": inner} for _, inner, p, *_ in _TABLE_S1],
               SPECS),
        Option("eps_in", DEFAULT_INPUT_ERROR, FLOAT, "raw input error rate of all three series"),
        _SUCCESS_EPS,
    ), csv_header=CSV_HEADER),
    Command("simulate", "Monte Carlo fault injection", cmd_simulate, (
        Option("inner", "steane", STR, "library code name"),
        Option("outer", "identity", STR, "'identity', 'single-check', or a schedule file"),
        Option("outer_size", 4, INT, "size of the identity or single-check schedule"),
        Option("eps", [3e-3], EPS, "one value, or a comma list for a sweep"),
        Option("trials", 100_000, INT, "trials per eps value"),
        _SEED,
        Option("mode", "idealized", STR, "check model", choices=("idealized", "exact")),
        Option("corruption", "erroneous", STR, "count corrupted accepted trials as errors, "
               "or reject them", choices=("erroneous", "reject")),
        Option("workers", None, INT, "worker threads, each deciding a strided share of the blocks in "
               "batches (default: one per core)"),
        Option("block_size", DEFAULT_BLOCK_SIZE, INT, "trials per RNG block"),
    ), csv_header="eps,eps_out,ci_low_or_events,ci_high"),
    Command("table-s1", "published-vs-recomputed finite-size rows", cmd_table_s1, (
        _EPS0,
        _SUCCESS_EPS,
    ), csv_header="label,published_rate,computed_log10_rate,"
                  "published_log10_eps_out,computed_log10_eps_out"),
)}


@functools.cache
def build_parser(names: tuple[str, ...] = tuple(COMMANDS)) -> argparse.ArgumentParser:
    """The ``msdistill`` parser with subparsers for ``names`` only (default: every command).

    Each tuple of names is built once per process and the parser is shared, so do not change
    it. Sharing is safe: every ``parse_args`` call fills a fresh namespace, and the help width
    is read when help is printed, not when the parser is built.
    """
    parser = _Parser(prog="msdistill", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name in names:
        command = COMMANDS[name]
        sub = subs.add_parser(command.name, help=command.help)
        for option in command.options:
            if option.kind.parse is not None:
                sub.add_argument(option.flag, dest=option.key, type=option.kind.parse,
                                 choices=option.choices, help=option.help)
        sub.add_argument("--config", help="JSON config file (a previous output replays itself)")
        sub.add_argument("--output", help="write to this path instead of stdout")
        sub.add_argument("--format", choices=["json", "csv"] if command.csv_header else ["json"])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run ``argv`` (default ``sys.argv[1:]``); a named subcommand is parsed by its parser alone.

    Any other first argument gets the full parser, so its help and errors list every subcommand.
    A process builds each parser once, so repeated in-process calls reuse it; a console run
    still builds one. CSV rows are built only for ``--format csv``.

    This is the one place an exception becomes an exit code. An InfeasibleError, or an
    output's ``failure`` after the output is written, prints ``infeasible: …`` and exits 2;
    any other ValueError or an OSError prints ``usage error: …`` and exits 1.
    """
    argv = sys.argv[1:] if argv is None else argv
    # the full parser as build_parser() so that callers share one cache entry
    parser = build_parser(tuple(argv[:1])) if argv and argv[0] in COMMANDS else build_parser()
    try:
        args = parser.parse_args(argv)
        command = COMMANDS[args.subcommand]
        file_values = _load_config(args.config) if args.config else {}
        config = _resolve(command, file_values, vars(args))
        out = command.handler(config)
        _emit(args, command, config, out)
        if out.failure:
            raise InfeasibleError(out.failure)
        return EXIT_OK
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 data/estimation error.
"""
from __future__ import annotations

import argparse
import csv
import logging
import math
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from typing import get_type_hints

from . import __version__
from .analysis import (
    AnalyzeConfig,
    analyze_index,
    classify_source,
    report_json,
    table_text,
    write_report_csv,
)
from .errors import SelfAffineError
from .methods import D_METHODS, METHODS, estimate
from .montecarlo import (
    DEFAULT_LEVELS,
    DEFAULT_REPS,
    build_critical_values,
    check_levels,
    check_request,
    power_function,
)
from .simulate import MODELS, SimulationSpec, generate, niid_spec
from .timeseries import ARModel, read_prices_csv, read_values_csv, write_values_csv

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _seed(text: str) -> int:
    """A seed: numpy's SeedSequence, which every stream comes from, takes
    only non-negative integers."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


#: the CLI defaults of the parameters that a model requires, by its tag
CLI_DEFAULTS = {"arfima": {"d": 0.0}, "lstable": {"alpha": 2.0}, "student_t": {"df": 10}}
#: the flags that a spec's `ar` field is read from, and their types
_AR_FLAGS = {"ar_coefficients": _floats, "ar_intercept": float, "ar_sd": float}


def _flag_dests(spec_class) -> list[str]:
    """The dests of the flags that `spec_class`'s parameters are read from."""
    return [dest for f in fields(spec_class) if f.name not in ("T", "seed")
            for dest in (_AR_FLAGS if f.name == "ar" else (f.name,))]


def _model_flag_error(args) -> str | None:
    """The usage error of the `--model` flags given, or None: first the model
    flags given that the model's spec has no field for, then the fields with
    neither a class default nor a CLI default that were not given."""
    if "model" not in args:
        return None
    tag = args.model.replace("-", "_")
    spec_class = MODELS[tag]
    given = vars(args).keys() & {d for c in MODELS.values() for d in _flag_dests(c)}
    unread = sorted(given - set(_flag_dests(spec_class)))
    missing = [f.name for f in fields(spec_class) if f.name not in ("T", "ar")
               and f.default is MISSING and f.default_factory is MISSING
               and f.name not in args and f.name not in CLI_DEFAULTS.get(tag, {})]
    for verb, dests in (("does not read", unread), ("needs", missing)):
        if dests:
            flags = ", ".join(f"--{dest.replace('_', '-')}" for dest in dests)
            return f"--model {args.model} {verb} {flags}"
    return None


def _spec_from_args(args) -> SimulationSpec:
    """The `--model` spec from the flags given and the model's CLI defaults;
    every other field keeps its class default."""
    tag = args.model.replace("-", "_")
    spec_class = MODELS[tag]
    names = [f.name for f in fields(spec_class)]
    flags = {**CLI_DEFAULTS.get(tag, {}), **vars(args), "T": args.length}
    if "ar" in names:
        coefficients = flags.get("ar_coefficients", ())
        flags["ar"] = ARModel(order=len(coefficients), intercept=flags.get("ar_intercept", 0.0),
                              coefficients=coefficients, residual_sd=flags.get("ar_sd", 1.0))
    return spec_class(**{name: flags[name] for name in names if name in flags})


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True,
                   choices=[m.replace("_", "-") for m in MODELS])
    p.add_argument("-T", "--length", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    # one flag per model parameter, typed by its field and in the namespace
    # only when given; a flag the model does not read is a usage error
    readers, types = {}, {}
    for spec_class in MODELS.values():
        hints = {**get_type_hints(spec_class), **_AR_FLAGS}
        for dest in _flag_dests(spec_class):
            readers.setdefault(dest, []).append(spec_class.model.replace("_", "-"))
            types[dest] = hints[dest]
    group = p.add_argument_group("model parameters", argument_default=argparse.SUPPRESS)
    for dest, models in readers.items():
        group.add_argument(f"--{dest.replace('_', '-')}", type=types[dest],
                           help=f"read by {', '.join(models)}")


def build_parser() -> _Parser:
    parser = _Parser(prog="selfaffine",
                     description="Self-affinity testing for return series")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a returns series to CSV")
    _add_model_flags(p)
    p.add_argument("--out", required=True, help="output CSV (single value column)")

    p = sub.add_parser("estimate", help="run one estimator on a returns CSV")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--input", required=True, help="returns CSV with a value column")
    p.add_argument("--out", default="-", help="output CSV path, '-' for stdout")

    p = sub.add_parser("critvals", help="Monte Carlo critical values (NIID null)")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("-T", "--length", type=int, required=True)
    p.add_argument("--reps", type=int, default=DEFAULT_REPS)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--levels", type=_floats, default=DEFAULT_LEVELS)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--out", default="-")

    p = sub.add_parser("power", help="rejection rate against an alternative")
    _add_model_flags(p)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--reps", type=int, default=DEFAULT_REPS)
    p.add_argument("--null-reps", type=int, default=DEFAULT_REPS)
    p.add_argument("--level", type=float, default=0.05)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--out", default="-")

    p = sub.add_parser("analyze", help="full battery + classification for prices")
    p.add_argument("--input", required=True, help="price CSV with date,close columns")
    p.add_argument("--reps", type=int, default=AnalyzeConfig.reps)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--levels", type=_floats, default=DEFAULT_LEVELS)
    p.add_argument("--max-lag", type=int, default=AnalyzeConfig.max_lag)
    p.add_argument("--criterion", choices=("aic", "bic"), default=AnalyzeConfig.criterion)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--json", action="store_true", help="also write a JSON report")

    sub.add_parser("selftest", help="run quick built-in correctness checks")
    return parser


def _write_csv(path: str, rows: list[list]) -> None:
    if path == "-":
        csv.writer(sys.stdout).writerows(rows)
    else:
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)


def _cmd_simulate(args) -> int:
    series = generate(_spec_from_args(args))
    write_values_csv(args.out, series.values)
    print(f"wrote {len(series)} values to {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    r = read_values_csv(args.input)
    est = estimate(args.method, r)
    label = "d" if args.method in D_METHODS else "H"
    rows = [["method", "H_or_d", "intercept", "n_points"],
            [args.method, f"{est.value:.6f}",
             "" if math.isnan(est.intercept) else f"{est.intercept:.6f}", est.n_points]]
    _write_csv(args.out, rows)
    if args.out != "-":
        print(f"{args.method}: {label} = {est.value:.6f}")
    return 0


def _cmd_critvals(args) -> int:
    levels = check_levels(args.levels)
    table = build_critical_values(niid_spec(args.length), args.method, args.reps, args.seed,
                                  workers=args.workers, cache_dir=args.cache_dir)
    header = ["method", "T", "reps", "mean", "sd"]
    row = [table.method, table.T, table.reps, f"{table.mean:.6f}", f"{table.sd:.6f}"]
    for level in levels:
        header.append(f"cutoff_{level:g}")
        row.append(f"{table.cutoff(level):.6f}")
    _write_csv(args.out, [header, row])
    return 0


def _cmd_power(args) -> int:
    alt = _spec_from_args(args)
    check_levels((args.level,))
    check_request(args.reps, args.seed + 1, args.workers)  # before the null table is simulated
    table = build_critical_values(niid_spec(args.length), args.method, args.null_reps,
                                  args.seed, workers=args.workers, cache_dir=args.cache_dir)
    result = power_function(alt, args.method, table, args.reps,
                            args.seed + 1, level=args.level, workers=args.workers)
    rows = [["method", "alternative", "T", "level", "rejection_rate",
             "reps_used", "failures"],
            [args.method, args.model, result.spec.T, f"{result.level:g}",
             f"{result.rejection_rate:.4f}", result.reps_used, result.failures]]
    _write_csv(args.out, rows)
    return 0


def _cmd_analyze(args) -> int:
    prices = read_prices_csv(args.input)
    config = AnalyzeConfig(
        reps=args.reps, seed=args.seed, levels=args.levels, max_lag=args.max_lag,
        criterion=args.criterion, workers=args.workers, cache_dir=args.cache_dir,
        series_id=Path(args.input).stem)
    report = analyze_index(prices, config)
    classification = classify_source(report)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{config.series_id}_report.csv"
    write_report_csv(report, csv_path)
    if args.json:
        json_path = out_dir / f"{config.series_id}_report.json"
        json_path.write_text(report_json(report, classification))
    s = report.summary
    print(f"T={report.T}  mean {s.mean:.5f}  sd {s.sd:.5f}  "
          f"skewness {s.skewness:.2f}  kurtosis {s.kurtosis:.2f}")
    print(f"fitted AR order: {report.ar_model.order} "
          f"(residual sd {report.ar_model.residual_sd:.5f})")
    print(table_text(report))
    print(f"classification: {classification.verdict} "
          f"(evidence: {classification.evidence})")
    print(f"rationale: {classification.rationale}")
    print(f"report written to {csv_path}")
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    return 0 if run_selftest() else DATA_ERROR


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "critvals": _cmd_critvals,
    "power": _cmd_power,
    "analyze": _cmd_analyze,
    "selftest": _cmd_selftest,
}


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        message = _model_flag_error(args)
        if message:
            parser.error(message)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    # diagnostics (such as an ignored cache file) go to this call's stderr
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s: %(message)s"))
    log = logging.getLogger("selfaffine")
    log.addHandler(handler)
    try:
        return _COMMANDS[args.command](args)
    except SelfAffineError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return DATA_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    finally:
        log.removeHandler(handler)


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()

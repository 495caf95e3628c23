"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 data/estimation error.
"""
from __future__ import annotations

import argparse
import csv
import logging
import sys
from pathlib import Path

import numpy as np

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
from .montecarlo import DEFAULT_LEVELS, DEFAULT_REPS, build_critical_values, power_function
from .simulate import (
    DEFAULT_BURN_IN,
    DEFAULT_TRUNCATION,
    MODELS,
    SimulationSpec,
    ar_recursive_spec,
    arfima_spec,
    generate,
    lstable_spec,
    niid_spec,
    student_t_spec,
)
from .timeseries import ARModel, read_prices_csv, read_values_csv, write_values_csv

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _spec_from_args(args) -> SimulationSpec:
    model = args.model.replace("-", "_")
    if model == "niid":
        return niid_spec(args.length, args.seed)
    if model == "arfima":
        return arfima_spec(args.d, args.length, args.seed,
                           truncation=args.truncation)
    if model == "lstable":
        return lstable_spec(args.alpha, args.length, args.seed,
                            beta=args.beta, mu=args.mu, sigma=args.sigma)
    if model == "student_t":
        return student_t_spec(args.df, args.length, args.seed)
    coeffs = np.array([float(c) for c in args.ar_coefficients.split(",") if c.strip()]
                      if args.ar_coefficients else [])
    model_ar = ARModel(order=len(coeffs), intercept=args.ar_intercept,
                       coefficients=coeffs, residual_sd=args.ar_sd)
    return ar_recursive_spec(model_ar, args.length, args.seed, burn_in=args.burn_in)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True,
                   choices=[m.replace("_", "-") for m in MODELS])
    p.add_argument("-T", "--length", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d", type=float, default=0.0, help="ARFIMA integration order")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--df", type=int, default=10)
    p.add_argument("--ar-coefficients", default="",
                   help="comma-separated AR coefficients")
    p.add_argument("--ar-intercept", type=float, default=0.0)
    p.add_argument("--ar-sd", type=float, default=1.0)
    p.add_argument("--burn-in", type=int, default=DEFAULT_BURN_IN)
    p.add_argument("--truncation", type=int, default=DEFAULT_TRUNCATION,
                   help="ARFIMA moving-average truncation lag")


def _levels(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--levels", type=_levels, default=DEFAULT_LEVELS)
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--levels", type=_levels, default=DEFAULT_LEVELS)
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
    intercept = getattr(est, "intercept", None)
    n_points = est.n_points if hasattr(est, "n_points") else est.m
    rows = [["method", "H_or_d", "intercept", "n_points"],
            [args.method, f"{est.value:.6f}",
             "" if intercept is None or intercept != intercept else f"{intercept:.6f}",
             n_points]]
    _write_csv(args.out, rows)
    if args.out != "-":
        print(f"{args.method}: {label} = {est.value:.6f}")
    return 0


def _cmd_critvals(args) -> int:
    table = build_critical_values(
        niid_spec(args.length), args.method, args.reps, args.seed,
        levels=args.levels, workers=args.workers, cache_dir=args.cache_dir)
    header = ["method", "T", "reps", "mean", "sd"]
    row = [table.method, table.T, table.reps, f"{table.mean:.6f}", f"{table.sd:.6f}"]
    for level, cut in table.cutoffs:
        header.append(f"cutoff_{level:g}")
        row.append(f"{cut:.6f}")
    _write_csv(args.out, [header, row])
    return 0


def _cmd_power(args) -> int:
    alt = _spec_from_args(args)
    table = build_critical_values(
        niid_spec(args.length), args.method, args.null_reps, args.seed,
        levels=(args.level,), workers=args.workers, cache_dir=args.cache_dir)
    result = power_function(alt, args.method, table, args.reps,
                            args.seed + 1, level=args.level, workers=args.workers)
    rows = [["method", "alternative", "T", "level", "rejection_rate",
             "reps_used", "failures"],
            [args.method, args.model, result.T, f"{result.level:g}",
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
    if report.ar_model is not None:
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

#!/usr/bin/env python3
"""Rebuild the Monte Carlo reference tables at a configurable replication count.

Emits CSV to stdout: critical-value rows (one per method/length), bias rows
for the fractionally integrated and stable alternatives, and a power grid.
At --reps 5000 this reproduces the full study; --reps 200 gives a quick look.
"""
import argparse
import functools
import sys
import time

from selfaffine.cli import _seed
from selfaffine.montecarlo import build_tables, replicate
from selfaffine.scaling import MIN_T
from selfaffine.simulate import arfima_spec, lstable_spec_for_hurst, niid_spec

SCALING_METHODS = ("rra", "fa1", "fa2", "fa3")
HURSTS = (0.54, 0.58, 0.62)
TABLES = ("critvals", "bias", "power")


def table_names(text):
    """The comma-separated table names of --tables, each one of TABLES."""
    names = text.split(",")
    unknown = [name for name in names if name not in TABLES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown table {', '.join(map(repr, unknown))} (choose from {', '.join(TABLES)})")
    return names


def sample_sizes(text):
    """The comma-separated sample sizes of --lengths, each an integer of at
    least MIN_T (the estimators' shortest series)."""
    values = []
    for item in text.split(","):
        try:
            values.append(int(item))
        except ValueError:
            raise argparse.ArgumentTypeError(f"length {item!r} is not an integer") from None
        if values[-1] < MIN_T:
            raise argparse.ArgumentTypeError(f"length {values[-1]} is below {MIN_T}")
    return values


def alternatives(H, T):
    """(model, spec) of the fractionally integrated and stable alternatives."""
    return (("arfima", arfima_spec(H - 0.5, T)), ("lstable", lstable_spec_for_hurst(H, T)))


def alternative_cells(lengths, reps, seed):
    """(T, H, method, model, table) of every bias or power cell, in row
    order: each alternative runs once for every method."""
    for T in lengths:
        for H in HURSTS:
            runs = {model: replicate(spec, SCALING_METHODS, reps, seed)
                    for model, spec in alternatives(H, T)}
            for method in SCALING_METHODS:
                for model, tables in runs.items():
                    yield T, H, method, model, tables[method]


def table_critvals(lengths, null_tables, out):
    print("table,method,T,mean,sd,c10,c05,c01", file=out)
    for T in lengths:
        for method, t in null_tables(T).items():
            print(f"critvals,{method},{T},{t.mean:.4f},{t.sd:.4f},"
                  f"{t.cutoff(0.10):.4f},{t.cutoff(0.05):.4f},{t.cutoff(0.01):.4f}",
                  file=out)


def table_bias(lengths, reps, seed, out):
    print("table,model,H,method,T,mean,sd", file=out)
    for T, H, method, model, s in alternative_cells(lengths, reps, seed):
        print(f"bias,{model},{H},{method},{T},{s.mean:.4f},{s.sd:.4f}", file=out)


def table_power(lengths, null_tables, reps, seed, out):
    print("table,model,H,method,T,level,power", file=out)
    for T, H, method, model, s in alternative_cells(lengths, reps, seed + 1):
        rate = float((s.sample > null_tables(T)[method].cutoff(0.05)).mean())
        print(f"power,{model},{H},{method},{T},0.05,{rate:.3f}", file=out)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=1000,
                        help="at least 1, and at least 100 for critvals and power")
    parser.add_argument("--seed", type=_seed, default=0, help="a non-negative integer")
    parser.add_argument("--lengths", type=sample_sizes, default="1000,2000",
                        help=f"comma-separated sample sizes, each at least {MIN_T}")
    parser.add_argument("--tables", type=table_names, default=",".join(TABLES),
                        help=f"comma-separated tables among {', '.join(TABLES)}")
    args = parser.parse_args()
    wanted = args.tables
    # critvals and power read NIID null tables, which need 100 replications
    least = 100 if {"critvals", "power"} & set(wanted) else 1
    if args.reps < least:
        parser.error(f"argument --reps: {args.reps} is below {least}, "
                     "the fewest the tables asked for can run")

    t0 = time.time()
    # each length's NIID null tables serve the critical values and the power grid
    null_tables = functools.cache(
        lambda T: build_tables(niid_spec(T), SCALING_METHODS, args.reps, args.seed))
    if "critvals" in wanted:
        table_critvals(args.lengths, null_tables, sys.stdout)
    if "bias" in wanted:
        table_bias(args.lengths, args.reps, args.seed, sys.stdout)
    if "power" in wanted:
        table_power(args.lengths, null_tables, args.reps, args.seed, sys.stdout)
    print(f"# done in {time.time() - t0:.0f}s with {args.reps} replications",
          file=sys.stderr)


if __name__ == "__main__":
    main()

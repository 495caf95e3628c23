#!/usr/bin/env python3
"""Print the per-kernel table: CPU milliseconds per estimate for every method,
and per generated series for NIID, ARFIMA d=0.08, symmetric stable H=0.58
(alpha = 1/0.58) and AR(4) `ar_recursive` specs, for one series and per row
of a 64-row block, at T = 1000, 2000 and 5000. The AR row adds the time per
row of a 256-row chunk, the largest height at which the replication engine
generates it.

The estimated series are NIID rows from `generate_block`, seeded by
`derive_seed(0, i)`. Each figure is the median over repeats of one call
filling about 0.2 CPU seconds (at least five), after one untimed call,
printed with the lower and upper quartiles of those repeats in brackets. The
`fa1`+`fa2`+`fa3` row times FA(1)-FA(3) together, in the one shared pass the
replication engine makes. The analyze battery row times the six methods of
`analysis.BATTERY` on one series: the one `estimate_blocks` call that
`analyze_index` makes per variant, against six one-method calls. A generator
row times `generate_block` on the same seeds, the ARFIMA pre-sample of 5000
draws and the AR burn-in of 1000 steps included. Run from a source checkout:
PYTHONPATH=src python scripts/kernel_times.py
"""
import os
import platform
import statistics
import time

import numpy as np

from selfaffine.analysis import BATTERY
from selfaffine.methods import FA_METHODS, METHODS, estimate_blocks
from selfaffine.montecarlo import _AR_ROWS
from selfaffine.rng import derive_seed
from selfaffine.simulate import (
    ar_recursive_spec,
    arfima_spec,
    generate_block,
    lstable_spec_for_hurst,
    niid_spec,
)
from selfaffine.timeseries import ARModel

LENGTHS = (1000, 2000, 5000)
ROWS = 64
BUDGET_S = 0.2
AR4 = ARModel(order=4, intercept=0.01, coefficients=np.array([0.2, -0.1, 0.05, 0.03]),
              residual_sd=0.7)


def cpu_ms(call, per=1):
    """(lower quartile, median, upper quartile) of the CPU milliseconds of one
    `call()`, divided by `per`."""
    call()
    times, start = [], time.process_time()
    while len(times) < 5 or time.process_time() - start < BUDGET_S:
        t = time.process_time()
        call()
        times.append(time.process_time() - t)
    return tuple(1e3 * t / per for t in statistics.quantiles(times, n=4))


def row(label, cells):
    print(f"| {label} | " + " | ".join(" / ".join(f"{mid:.2f} [{lo:.2f}-{hi:.2f}]"
                                                  for lo, mid, hi in cell) for cell in cells)
          + " |", flush=True)


def main():
    print(f"# python {platform.python_version()}, numpy {np.__version__}, "
          f"{platform.machine()}, {os.cpu_count()} CPUs")
    seeds = [derive_seed(0, i) for i in range(max(ROWS, _AR_ROWS))]
    blocks = {T: generate_block(niid_spec(T), seeds[:ROWS])[0] for T in LENGTHS}
    print("| kernel | " + " | ".join(f"T={T}" for T in LENGTHS) + " |")
    print("|---" * (len(LENGTHS) + 1) + "|")
    for methods in [(m,) for m in METHODS] + [FA_METHODS]:
        row("+".join(f"`{m}`" for m in methods),
            [(cpu_ms(lambda: estimate_blocks(methods, X[:1])),
              cpu_ms(lambda: estimate_blocks(methods, X), ROWS)) for X in blocks.values()])
    row("analyze battery, one series: one call / six calls",
        [(cpu_ms(lambda: estimate_blocks(BATTERY, X[:1])),
          cpu_ms(lambda: [estimate_blocks((m,), X[:1]) for m in BATTERY]))
         for X in blocks.values()])
    for label, spec in [("`niid`", niid_spec),
                        ("`arfima` d=0.08", lambda T: arfima_spec(0.08, T)),
                        ("`lstable` H=0.58", lambda T: lstable_spec_for_hurst(0.58, T))]:
        row(f"generate {label}",
            [tuple(cpu_ms(lambda: generate_block(spec(T), seeds[:n]), n) for n in (1, ROWS))
             for T in LENGTHS])
    row("generate `ar_recursive` AR(4)",
        [tuple(cpu_ms(lambda: generate_block(ar_recursive_spec(AR4, T), seeds[:n]), n)
               for n in (1, ROWS, _AR_ROWS)) for T in LENGTHS])
    print(f"# ms per estimate or generated series: one series / per row of a {ROWS}-row block"
          f" (/ per row of a {_AR_ROWS}-row chunk); median [lower-upper quartile] of repeats")


if __name__ == "__main__":
    main()

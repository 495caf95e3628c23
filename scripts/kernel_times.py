#!/usr/bin/env python3
"""Print the per-kernel table: CPU milliseconds per estimate for every method,
and per generated series for NIID, ARFIMA d=0.08, symmetric stable H=0.58
(alpha = 1/0.58) and AR(4) `ar_recursive` specs, for one series and per row
of a 64-row block, at T = 383 (the returns of tests/data/prices_demo.csv,
the series perfbench's analyze workloads test), 1000, 2000 and 5000. The AR
row adds the time per row of a 256-row chunk, the largest height at which
the replication engine generates it (`ar_recursive_spec.chunk_rows`).

The estimated series are NIID rows from `generate_block`, seeded by
`derive_seed(0, i)`. Each figure is the median over repeats of one call
filling about 0.2 CPU seconds (at least five), after one untimed call,
printed with the lower and upper quartiles of those repeats in brackets. The
`fa1`+`fa2`+`fa3`, `gph`+`robinson` and `pickands`+`hill`+`hr` rows time each
kernel's methods together, in the one shared pass the replication engine
makes: one partition function over the union of the FA q grids, one
periodogram, one sort of each row's tail. The analyze battery row times the
six methods of `analysis.BATTERY` on one series: the one `estimate_blocks`
call that `analyze_index` makes per variant, against six one-method calls. A
generator row times `generate_block` on the same seeds, the ARFIMA
pre-sample of 5000 draws and the AR burn-in of 1000 steps included. Each cell ends with the
traced peak memory of one untimed call on a 64-row block, in MiB (tracemalloc;
the estimators' input block is allocated before tracing starts, a generator's
output block is counted). The header names numpy's SIMD baseline and the
targets it found on this CPU: both the bits and the times depend on them.

A line after the table gives the rows per block that the replication engine
estimates together at each T (`montecarlo._block_rows`), and another times
seeding 1,000 rows, in microseconds per row: numpy's SeedSequence row by row
(`derive_seed`, `rng_from_seed`) against the engine's one pass over them
(`derive_seeds`, `generators`).

A last line times each of the nine methods on one NIID series of T = 100,000,
as perfbench's estimate-long workload estimates its long series, each in a
fresh interpreter (the script run as a subprocess with the method's name), as
a one-method `selfaffine estimate` runs: the table's earlier calls raise
glibc's mmap and trim thresholds, which hides the page faults of a kernel
whose freed temporaries are trimmed and faulted back in on every call. Each
of its cells adds the median minor page faults of a timed call. Run it with
one BLAS thread, as perfbench runs: a multi-threaded dot product makes
`robinson` at T = 100,000 cost about ten times the CPU. From a source checkout:
OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/kernel_times.py
"""
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

from selfaffine.analysis import BATTERY
from selfaffine.methods import D_METHODS, FA_METHODS, METHODS, TAIL_METHODS, estimate_blocks
from selfaffine.montecarlo import _block_rows
from selfaffine.rng import derive_seed, derive_seeds, generators, rng_from_seed
from selfaffine.simulate import (
    ar_recursive_spec,
    arfima_spec,
    generate_block,
    lstable_spec_for_hurst,
    niid_spec,
)
from selfaffine.timeseries import ARModel

#: the AR rows generated together: the replication engine's chunk height for the model
AR_ROWS = ar_recursive_spec.chunk_rows

LENGTHS = (383, 1000, 2000, 5000)
#: the length of the one-series line: perfbench estimate-long's series
LONG_T = 100_000
ROWS = 64
#: rows of the seeding line
SEED_ROWS = 1000
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


def peak_mib(call):
    """Traced peak memory of one `call()`, in MiB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def row(label, cells):
    """One table row; a cell is (timings, the traced peak of a 64-row block)."""
    print(f"| {label} | " + " | ".join(
        " / ".join(f"{mid:.2f} [{lo:.2f}-{hi:.2f}]" for lo, mid, hi in times) + f"; {peak:.1f} MiB"
        for times, peak in cells) + " |", flush=True)


def long_cell(method):
    """`method`'s cell of the one-series line: its CPU ms on one NIID series
    of LONG_T values, and the median minor page faults of a timed call."""
    X = generate_block(niid_spec(LONG_T), [derive_seed(0, 0)])[0]
    faults = []

    def call():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        estimate_blocks((method,), X)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)

    lo, mid, hi = cpu_ms(call)
    return f"`{method}` {mid:.2f} [{lo:.2f}-{hi:.2f}]; {statistics.median(faults[1:]):.0f} faults"


def seeding_line():
    """The seeding line: microseconds per row of seeding SEED_ROWS rows, numpy
    row by row against one pass."""
    seeds = derive_seeds(0, 0, SEED_ROWS)
    cells = {"`derive_seed` / `derive_seeds`": (
                 lambda: [derive_seed(0, i) for i in range(SEED_ROWS)],
                 lambda: derive_seeds(0, 0, SEED_ROWS)),
             "`rng_from_seed` / `generators`": (
                 lambda: [rng_from_seed(s) for s in seeds], lambda: generators(seeds))}
    return f"| seed {SEED_ROWS:,} rows, µs per row | " + " | ".join(
        f"{label} " + " / ".join("{1:.2f} [{0:.2f}-{2:.2f}]".format(
            *(1e3 * t for t in cpu_ms(call, SEED_ROWS))) for call in calls)
        for label, calls in cells.items()) + " |"


def main():
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    print(f"# python {platform.python_version()}, numpy {np.__version__}, "
          f"{platform.machine()}, {os.cpu_count()} CPUs, SIMD baseline "
          f"{' '.join(simd['baseline'])}, found {' '.join(simd['found'])}")
    seeds = [derive_seed(0, i) for i in range(max(ROWS, AR_ROWS))]
    blocks = {T: generate_block(niid_spec(T), seeds[:ROWS])[0] for T in LENGTHS}
    print("| kernel | " + " | ".join(f"T={T}" for T in LENGTHS) + " |")
    print("|---" * (len(LENGTHS) + 1) + "|")
    for methods in [(m,) for m in METHODS] + [FA_METHODS, D_METHODS, TAIL_METHODS]:
        row("+".join(f"`{m}`" for m in methods),
            [((cpu_ms(lambda: estimate_blocks(methods, X[:1])),
               cpu_ms(lambda: estimate_blocks(methods, X), ROWS)),
              peak_mib(lambda: estimate_blocks(methods, X))) for X in blocks.values()])
    row("analyze battery, one series: one call / six calls",
        [((cpu_ms(lambda: estimate_blocks(BATTERY, X[:1])),
           cpu_ms(lambda: [estimate_blocks((m,), X[:1]) for m in BATTERY])),
          peak_mib(lambda: estimate_blocks(BATTERY, X))) for X in blocks.values()])
    generators = [("`niid`", niid_spec, (1, ROWS)),
                  ("`arfima` d=0.08", lambda T: arfima_spec(0.08, T), (1, ROWS)),
                  ("`lstable` H=0.58", lambda T: lstable_spec_for_hurst(0.58, T), (1, ROWS)),
                  ("`ar_recursive` AR(4)", lambda T: ar_recursive_spec(AR4, T),
                   (1, ROWS, AR_ROWS))]
    for label, spec, heights in generators:
        row(f"generate {label}",
            [(tuple(cpu_ms(lambda: generate_block(spec(T), seeds[:n]), n) for n in heights),
              peak_mib(lambda: generate_block(spec(T), seeds[:ROWS]))) for T in LENGTHS])
    print(f"# ms per estimate or generated series: one series / per row of a {ROWS}-row block"
          f" (/ per row of a {AR_ROWS}-row chunk); median [lower-upper quartile] of repeats;"
          f" then the traced peak MiB of one call on a {ROWS}-row block")
    print("# rows per block the replication engine estimates: " +
          ", ".join(f"T={T} {_block_rows(T)}" for T in LENGTHS))
    print(seeding_line(), flush=True)
    print(f"| one series, T={LONG_T} | " + " | ".join(
        subprocess.run([sys.executable, __file__, m], capture_output=True, text=True,
                       check=True).stdout.strip() for m in METHODS) + " |")


if __name__ == "__main__":
    if len(sys.argv) > 1:
        print(long_cell(sys.argv[1]))
    else:
        main()

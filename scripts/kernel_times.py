#!/usr/bin/env python3
"""Print the per-estimate kernel table: CPU milliseconds per method, for one
series and per row of a 64-row block, at T = 1000, 2000 and 5000.

The series are NIID rows from `generate_block`, seeded by `derive_seed(0, i)`.
Each figure is the median over repeats of one `estimate_blocks` call filling
about 0.2 CPU seconds (at least five), after one untimed call. The last row
times FA(1)-FA(3) together, in the one shared pass the replication engine
makes. Run from a source checkout: PYTHONPATH=src python scripts/kernel_times.py
"""
import os
import platform
import statistics
import time

import numpy as np

from selfaffine.methods import FA_METHODS, METHODS, estimate_blocks
from selfaffine.rng import derive_seed
from selfaffine.simulate import generate_block, niid_spec

LENGTHS = (1000, 2000, 5000)
ROWS = 64
BUDGET_S = 0.2


def cpu_ms(methods, X):
    """Median CPU milliseconds of one `estimate_blocks(methods, X)` call."""
    estimate_blocks(methods, X)
    times, start = [], time.process_time()
    while len(times) < 5 or time.process_time() - start < BUDGET_S:
        t = time.process_time()
        estimate_blocks(methods, X)
        times.append(time.process_time() - t)
    return 1e3 * statistics.median(times)


def main():
    print(f"# python {platform.python_version()}, numpy {np.__version__}, "
          f"{platform.machine()}, {os.cpu_count()} CPUs")
    blocks = {T: generate_block(niid_spec(T), [derive_seed(0, i) for i in range(ROWS)])[0]
              for T in LENGTHS}
    print("| method | " + " | ".join(f"T={T}" for T in LENGTHS) + " |")
    print("|---" * (len(LENGTHS) + 1) + "|")
    for methods in [(m,) for m in METHODS] + [FA_METHODS]:
        cells = [f"{cpu_ms(methods, X[:1]):.2f} / {cpu_ms(methods, X) / ROWS:.2f}"
                 for X in blocks.values()]
        print("| " + "+".join(f"`{m}`" for m in methods) + " | " + " | ".join(cells) + " |",
              flush=True)
    print(f"# ms per estimate: one series / per row of a {ROWS}-row block")


if __name__ == "__main__":
    main()

"""Quick built-in correctness checks runnable without a test harness."""
from __future__ import annotations

import math
import tempfile

import numpy as np

from .methods import METHODS, estimate_point
from .montecarlo import critical_values, load_table, replicate, run_replications, save_table
from .rng import derive_seed
from .scaling import (
    Q_GRIDS,
    _fa_points,
    _fa_slopes,
    _partition_errors,
    partition_function,
    rs_statistic,
    time_scale_grid,
)
from .simulate import arfima_spec, arfima_weights, generate, niid_spec
from .timeseries import PriceSeries, ReturnsSeries, log_returns, normalize_transform


def _engine_matches_one_row_estimates() -> bool:
    tables = replicate(niid_spec(128), METHODS, 5, 42)
    series = [generate(niid_spec(128, seed=derive_seed(42, i))) for i in range(5)]
    return all(list(tables[m].sample) == sorted(estimate_point(m, r) for r in series)
               for m in METHODS)


def _trend_has_unit_fa_hurst() -> bool:
    # scales dividing T keep the block count exact, making the fit exact
    scales, q = (8, 16, 32, 64), Q_GRIDS["fa1"]
    lnS = _fa_points(np.full((1, 1024), 0.3), q, scales)
    slope = _fa_slopes(lnS, q, np.log(scales))[0]
    return not _partition_errors(lnS, scales) and abs(slope - 1.0) < 1e-9


def _saved_table_loads_back() -> bool:
    spec, table = niid_spec(128), run_replications(niid_spec(128), "hill", 100, 42)
    with tempfile.TemporaryDirectory() as cache:
        save_table(critical_values(table), spec, cache)
        back = load_table(cache, spec, "hill", 100, 42)
    return back == table  # the whole null sample, so every level's cutoff


def _checks():
    yield ("time-scale grid at T=1000 spans 5..86 over 20 scales",
           lambda: time_scale_grid(1000) == (
               5, 6, 7, 8, 9, 10, 12, 14, 16, 19, 22, 26, 30, 35, 40,
               47, 55, 63, 74, 86))
    yield ("R/S on (1,2,1,2) at n=2 equals 1",
           lambda: abs(rs_statistic(ReturnsSeries([1, 2, 1, 2]), 2) - 1.0) < 1e-12)
    yield ("partition function of a constant path increment",
           lambda: abs(partition_function(ReturnsSeries([0.5] * 4), 2, 2.0)
                       - 2.0 * 1.0 ** 2) < 1e-12)
    yield ("fractional weights recursion at d close to 0.5",
           lambda: np.allclose(arfima_weights(0.5 - 1e-12, 3),
                               [1.0, 0.5, 0.375, 0.3125], atol=1e-9))
    yield ("normalize transform hits the quartile quantiles",
           lambda: np.allclose(
               normalize_transform(ReturnsSeries([5.0, 1.0, 9.0])).values,
               [0.0, -0.6744897501960817, 0.6744897501960817], atol=1e-9))
    yield ("normalize transform hits the tail quantile 1/384 at T=383",
           lambda: abs(normalize_transform(ReturnsSeries(np.arange(383.0))).values[0]
                       + 2.7938580633153958) < 1e-12)
    yield ("ARFIMA with d=0 reproduces the NIID stream",
           lambda: np.array_equal(generate(arfima_spec(0.0, 64, seed=7)).values,
                                  generate(niid_spec(64, seed=7)).values))
    yield ("log returns of (1, e, e^2) are (1, 1)",
           lambda: np.allclose(log_returns(PriceSeries([1.0, math.e, math.e ** 2])).values,
                               [1.0, 1.0], atol=1e-12))
    yield ("replication engine is deterministic",
           lambda: run_replications(niid_spec(128), "hill", 3, 42) ==
           run_replications(niid_spec(128), "hill", 3, 42))
    yield ("a 5-row engine run equals five one-row estimates on its sub-streams",
           _engine_matches_one_row_estimates)
    yield ("trend series has FA Hurst exponent 1", _trend_has_unit_fa_hurst)
    yield ("a null table saved to the cache loads back equal, at any level",
           _saved_table_loads_back)


def run_selftest() -> bool:
    ok = True
    for name, check in _checks():
        try:
            passed = bool(check())
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            passed = False
            name += f" ({type(exc).__name__}: {exc})"
        print(f"[{'PASS' if passed else 'FAIL'}] {name}")
        ok &= passed
    return ok

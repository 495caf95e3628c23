"""Replication engine, empirical critical values and power functions."""
from __future__ import annotations

import hashlib
import json
import logging
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import (
    AllReplicationsFailed,
    MissingCutoff,
    SelfAffineError,
    TooFewValues,
)
from .methods import estimate_block
# not called here: kept as module attributes so that perfbench's traced run,
# which rebinds montecarlo.estimate_point and montecarlo.generate, still finds them
from .methods import estimate_point  # noqa: F401
from .rng import derive_seed
from .simulate import SimulationSpec, generate_block
from .simulate import generate  # noqa: F401
from .timeseries import _freeze

DEFAULT_LEVELS = (0.10, 0.05, 0.01)
DEFAULT_REPS = 5000

CACHE_SCHEMA_VERSION = 2

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EstimateSample:
    """Estimator outputs over the successful replications of one spec."""

    method: str
    spec: SimulationSpec
    reps: int
    master_seed: int
    values: np.ndarray
    failures: int
    failures_by_kind: dict[str, int] = field(default_factory=dict)  # exception name -> count

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        if len(self.values) + self.failures != self.reps:
            raise ValueError("values + failures must account for every replication")
        if sum(self.failures_by_kind.values()) != self.failures:
            raise ValueError("failures_by_kind must add up to failures")


@dataclass(frozen=True)
class CriticalValueTable:
    """Empirical percentile cutoffs of an estimator under a null spec."""

    method: str
    T: int
    mean: float
    sd: float
    cutoffs: tuple[tuple[float, float], ...]  # (level, cutoff), level descending
    reps: int
    master_seed: int
    failures: int = 0
    failures_by_kind: dict[str, int] = field(default_factory=dict)  # exception name -> count

    def __post_init__(self):
        cuts = tuple(sorted(((float(l), float(c)) for l, c in self.cutoffs),
                            key=lambda lc: -lc[0]))
        object.__setattr__(self, "cutoffs", cuts)
        values = [c for _, c in cuts]
        if any(b < a for a, b in zip(values, values[1:])):
            raise ValueError("cutoffs must be non-decreasing as the level shrinks")
        if self.sd < 0:
            raise ValueError("sd must be non-negative")
        # a damaged cache file's field raises TypeError or ValueError here
        object.__setattr__(self, "failures_by_kind", dict(self.failures_by_kind))
        # also turns a cache file written before the field existed, for a
        # table with failures, into a miss
        if sum(self.failures_by_kind.values()) != self.failures:
            raise ValueError("failures_by_kind must add up to failures")

    def cutoff(self, level: float) -> float:
        for l, c in self.cutoffs:
            if math.isclose(l, level, rel_tol=0, abs_tol=1e-12):
                return c
        raise MissingCutoff(f"no cutoff at level {level} for {self.method}/T={self.T}")

    @property
    def levels(self) -> tuple[float, ...]:
        return tuple(l for l, _ in self.cutoffs)


@dataclass(frozen=True)
class PowerResult:
    """Rejection rate of one test against one alternative."""

    method: str
    spec: SimulationSpec
    T: int
    level: float
    rejection_rate: float
    reps_used: int
    failures: int

    def __post_init__(self):
        if not 0.0 <= self.rejection_rate <= 1.0:
            raise ValueError("rejection rate must lie in [0, 1]")


#: replications generated and estimated together: large enough to amortise
#: numpy's per-call overhead, small enough to keep a block's arrays in cache
_BLOCK_ROWS = 64


def _run_block(spec: SimulationSpec, methods: tuple[str, ...], master_seed: int,
               lo: int, hi: int) -> dict[str, tuple[np.ndarray, Counter]]:
    """Replications lo..hi-1 of `spec`, each estimated by every method.

    Per method: the estimates of the rows that succeed, in row order, and the
    count of the others by the name of the exception that failed them. A row
    that fails generation keeps that failure, whatever its estimate.
    """
    X, lost = generate_block(spec, [derive_seed(master_seed, i) for i in range(lo, hi)])
    # AR and ARFIMA rows are slices of longer ones; every kernel runs faster
    # on one contiguous copy
    X = np.ascontiguousarray(X)
    out = {}
    for method in methods:
        try:
            values, errors = estimate_block(method, X)
        except SelfAffineError as exc:  # fails every row alike, e.g. T too short
            values, errors = np.full(len(X), np.nan), dict.fromkeys(range(len(X)), exc)
        errors.update(lost)
        out[method] = (np.delete(values, list(errors)),
                       Counter(type(exc).__name__ for exc in errors.values()))
    return out


def replicate(spec: SimulationSpec, methods, reps: int, master_seed: int,
              workers: int = 1) -> dict[str, EstimateSample]:
    """Estimate every method on the same `reps` independent replications of `spec`.

    Replication i draws from the sub-stream (master_seed, i), so results do
    not depend on the worker count or scheduling. Replications are generated
    in blocks of rows and every method runs on each block; a row's estimate
    is bit-identical to the one-row estimate of the same series. Estimator
    failures are recorded by exception type, not fatal.
    """
    methods = tuple(methods)
    if reps < 1:
        raise ValueError("reps must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    starts = range(0, reps, _BLOCK_ROWS)
    ends = [min(lo + _BLOCK_ROWS, reps) for lo in starts]
    if workers == 1:
        parts = [_run_block(spec, methods, master_seed, lo, hi) for lo, hi in zip(starts, ends)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_block, repeat(spec), repeat(methods),
                                  repeat(master_seed), starts, ends))
    samples = {}
    for method in methods:
        values = np.concatenate([part[method][0] for part in parts])
        if not len(values):
            raise AllReplicationsFailed(f"all {reps} replications of {method} failed")
        by_kind = sum((part[method][1] for part in parts), Counter())
        samples[method] = EstimateSample(
            method=method, spec=spec, reps=reps, master_seed=master_seed,
            values=values, failures=reps - len(values),
            failures_by_kind=dict(sorted(by_kind.items())))
    return samples


def run_replications(spec: SimulationSpec, method: str, reps: int,
                     master_seed: int, workers: int = 1) -> EstimateSample:
    """Estimate `method` on `reps` independent replications of `spec`; see
    `replicate`."""
    return replicate(spec, (method,), reps, master_seed, workers=workers)[method]


def summarize_sample(s: EstimateSample) -> tuple[float, float]:
    """Arithmetic mean and (count-1)-divisor standard deviation."""
    if len(s.values) < 2:
        raise TooFewValues("need at least two successful replications")
    return float(s.values.mean()), float(s.values.std(ddof=1))


def _check_levels(levels) -> None:
    if not all(0.0 < level < 1.0 for level in levels):
        raise ValueError("levels must lie in (0, 1)")


def critical_values(s: EstimateSample, levels=DEFAULT_LEVELS) -> CriticalValueTable:
    """Nearest-rank percentile cutoffs: rank ceil((1-level)*count) ascending."""
    count = len(s.values)
    if count < 100:
        raise TooFewValues("need at least 100 successful replications")
    _check_levels(levels)
    ordered = np.sort(s.values)
    cuts = []
    for level in levels:
        rank = math.ceil((1.0 - level) * count)
        cuts.append((level, float(ordered[rank - 1])))
    mean, sd = summarize_sample(s)
    return CriticalValueTable(
        method=s.method, T=s.spec.T, mean=mean, sd=sd, cutoffs=tuple(cuts),
        reps=s.reps, master_seed=s.master_seed, failures=s.failures,
        failures_by_kind=s.failures_by_kind)


def build_tables(spec: SimulationSpec, methods, reps: int, master_seed: int,
                 levels=DEFAULT_LEVELS, workers: int = 1,
                 cache_dir: str | Path | None = None) -> dict[str, CriticalValueTable]:
    """Monte Carlo critical values for every method under `spec`, with caching.

    This is the one way to a null table. Cached tables are loaded first and
    served at exactly `levels`, so a file holding more levels still serves the
    request and the cache's contents never change a result; the missing
    methods are simulated in one `replicate` pass over shared replications,
    and each table is cached in its own file. A file that lacks a requested
    level is rewritten at the union of its levels and the requested ones.
    """
    def at_levels(table: CriticalValueTable) -> CriticalValueTable:
        return replace(table, cutoffs=tuple((l, table.cutoff(l)) for l in levels))

    # critical_values rejects these too, but only after a full simulation
    _check_levels(levels)
    if reps < 100:  # fewer cannot give the 100 successful replications it needs
        raise TooFewValues("need at least 100 replications")
    methods = tuple(methods)
    tables, cached_levels = {}, {}
    if cache_dir is not None:
        for method in methods:
            cached = load_table(cache_dir, spec, method, reps, master_seed)
            if cached is None:
                continue
            try:
                tables[method] = at_levels(cached)
            except MissingCutoff:  # the file lacks a requested level: simulate again
                cached_levels[method] = cached.levels
    missing = [m for m in methods if m not in tables]
    if missing:
        for method, sample in replicate(spec, missing, reps, master_seed,
                                        workers=workers).items():
            table = critical_values(
                sample, levels=set(levels).union(cached_levels.get(method, ())))
            if cache_dir is not None:
                save_table(table, spec, cache_dir)
            tables[method] = at_levels(table)
    return {m: tables[m] for m in methods}


def build_critical_values(spec: SimulationSpec, method: str, reps: int,
                          master_seed: int, levels=DEFAULT_LEVELS,
                          workers: int = 1,
                          cache_dir: str | Path | None = None) -> CriticalValueTable:
    """Monte Carlo critical values for `method` under `spec`; see `build_tables`."""
    return build_tables(spec, (method,), reps, master_seed, levels=levels,
                        workers=workers, cache_dir=cache_dir)[method]


def power_function(alt: SimulationSpec, method: str, table: CriticalValueTable,
                   reps: int, master_seed: int, level: float = 0.05,
                   workers: int = 1) -> PowerResult:
    """Rejection rate of the one-tail test `estimate > cutoff(level)`.

    Failed replications are excluded from numerator and denominator; their
    count is surfaced on the result.
    """
    if table.method != method or table.T != alt.T:
        raise ValueError(
            f"table is for {table.method}/T={table.T}, not {method}/T={alt.T}")
    cutoff = table.cutoff(level)
    sample = run_replications(alt, method, reps, master_seed, workers=workers)
    rate = float(np.mean(sample.values > cutoff))
    return PowerResult(method=method, spec=alt, T=alt.T, level=level,
                       rejection_rate=rate, reps_used=len(sample.values),
                       failures=sample.failures)


# --- critical value cache (one JSON file per table, keyed on the null spec) ----

def _cache_path(cache_dir: str | Path, spec: SimulationSpec, method: str, reps: int,
                master_seed: int) -> Path:
    # asdict covers every spec field; tolist() keeps full-precision AR coefficients.
    # The seed is zeroed in the dict, not through `replace`, which would rerun
    # the spec's validation on every lookup
    key = json.dumps([CACHE_SCHEMA_VERSION, {**asdict(spec), "seed": 0}, method,
                      reps, master_seed], sort_keys=True, default=lambda o: o.tolist())
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return Path(cache_dir) / f"cv_{method}_T{spec.T}_{digest}.json"


def save_table(table: CriticalValueTable, spec: SimulationSpec,
               cache_dir: str | Path) -> Path:
    """Write `table`, built under `spec`, atomically; schema in the README."""
    path = _cache_path(cache_dir, spec, table.method, table.reps, table.master_seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(asdict(table)))
    os.replace(tmp, path)
    return path


def load_table(cache_dir: str | Path, spec: SimulationSpec, method: str, reps: int,
               master_seed: int) -> CriticalValueTable | None:
    """The cached table for this request, or None when absent, malformed or foreign.

    A file that exists but cannot serve the request is logged as a warning;
    the caller simulates the table again and overwrites it.
    """
    path = _cache_path(cache_dir, spec, method, reps, master_seed)
    try:
        table = CriticalValueTable(**json.loads(path.read_text()))
    except FileNotFoundError:
        return None
    except (OSError, ValueError, TypeError) as exc:
        problem = f"{type(exc).__name__}: {exc}"
    else:
        if (table.method, table.T, table.reps, table.master_seed) == (
                method, spec.T, reps, master_seed):
            return table
        problem = (f"it holds {table.method}/T={table.T} reps={table.reps} "
                   f"seed={table.master_seed}")
    _log.warning("ignoring cache file %s (%s); the table is simulated again", path, problem)
    return None

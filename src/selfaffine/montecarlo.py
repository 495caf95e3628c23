"""Replication engine, empirical critical values and power functions."""
from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    AllReplicationsFailed,
    MissingCutoff,
    SelfAffineError,
    TooFewValues,
)
from .methods import estimate_point
from .rng import derive_seed
from .simulate import SimulationSpec, generate
from .timeseries import _freeze

DEFAULT_LEVELS = (0.10, 0.05, 0.01)
DEFAULT_REPS = 5000

CACHE_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class EstimateSample:
    """Estimator outputs over the successful replications of one spec."""

    method: str
    spec: SimulationSpec
    reps: int
    master_seed: int
    values: np.ndarray
    failures: int

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        if len(self.values) + self.failures != self.reps:
            raise ValueError("values + failures must account for every replication")


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

    def __post_init__(self):
        cuts = tuple(sorted(((float(l), float(c)) for l, c in self.cutoffs),
                            key=lambda lc: -lc[0]))
        object.__setattr__(self, "cutoffs", cuts)
        values = [c for _, c in cuts]
        if any(b < a for a, b in zip(values, values[1:])):
            raise ValueError("cutoffs must be non-decreasing as the level shrinks")
        if self.sd < 0:
            raise ValueError("sd must be non-negative")

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


def _run_chunk(spec: SimulationSpec, method: str, master_seed: int,
               indices: range) -> list[tuple[int, float | None]]:
    out: list[tuple[int, float | None]] = []
    for i in indices:
        sub = replace(spec, seed=derive_seed(master_seed, i))
        try:
            out.append((i, estimate_point(method, generate(sub))))
        except SelfAffineError:
            out.append((i, None))
    return out


def run_replications(spec: SimulationSpec, method: str, reps: int,
                     master_seed: int, workers: int = 1) -> EstimateSample:
    """Estimate `method` on `reps` independent replications of `spec`.

    Replication i draws from the sub-stream (master_seed, i), so results do
    not depend on the worker count or scheduling. Estimator failures are
    recorded, not fatal.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    pairs: list[tuple[int, float | None]] = []
    if workers == 1:
        pairs = _run_chunk(spec, method, master_seed, range(reps))
    else:
        chunk = max(1, math.ceil(reps / (workers * 4)))
        ranges = [range(lo, min(lo + chunk, reps)) for lo in range(0, reps, chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_run_chunk, [spec] * len(ranges),
                                 [method] * len(ranges), [master_seed] * len(ranges),
                                 ranges):
                pairs.extend(part)
    pairs.sort(key=lambda p: p[0])
    values = np.array([v for _, v in pairs if v is not None], dtype=float)
    failures = reps - len(values)
    if len(values) == 0:
        raise AllReplicationsFailed(f"all {reps} replications of {method} failed")
    return EstimateSample(method=method, spec=spec, reps=reps, master_seed=master_seed,
                          values=values, failures=failures)


def summarize_sample(s: EstimateSample) -> tuple[float, float]:
    """Arithmetic mean and (count-1)-divisor standard deviation."""
    if len(s.values) < 2:
        raise TooFewValues("need at least two successful replications")
    return float(s.values.mean()), float(s.values.std(ddof=1))


def critical_values(s: EstimateSample, levels=DEFAULT_LEVELS) -> CriticalValueTable:
    """Nearest-rank percentile cutoffs: rank ceil((1-level)*count) ascending."""
    count = len(s.values)
    if count < 100:
        raise TooFewValues("need at least 100 successful replications")
    ordered = np.sort(s.values)
    cuts = []
    for level in levels:
        if not 0.0 < level < 1.0:
            raise ValueError("levels must lie in (0, 1)")
        rank = math.ceil((1.0 - level) * count)
        cuts.append((level, float(ordered[rank - 1])))
    mean, sd = summarize_sample(s)
    return CriticalValueTable(
        method=s.method, T=s.spec.T, mean=mean, sd=sd, cutoffs=tuple(cuts),
        reps=s.reps, master_seed=s.master_seed, failures=s.failures)


def build_critical_values(spec: SimulationSpec, method: str, reps: int,
                          master_seed: int, levels=DEFAULT_LEVELS,
                          workers: int = 1,
                          cache_dir: str | Path | None = None) -> CriticalValueTable:
    """Monte Carlo critical values for `method` under `spec`, with caching."""
    if cache_dir is not None:
        cached = load_table(cache_dir, spec, method, reps, master_seed)
        if cached is not None and all(
                any(math.isclose(l, lv, abs_tol=1e-12) for lv in cached.levels)
                for l in levels):
            return cached
    sample = run_replications(spec, method, reps, master_seed, workers=workers)
    table = critical_values(sample, levels=levels)
    if cache_dir is not None:
        save_table(table, spec, cache_dir)
    return table


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
    # asdict covers every spec field; tolist() keeps full-precision AR coefficients
    key = json.dumps([CACHE_SCHEMA_VERSION, asdict(replace(spec, seed=0)), method,
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
    """The cached table for this request, or None when absent, malformed or foreign."""
    try:
        table = CriticalValueTable(**json.loads(
            _cache_path(cache_dir, spec, method, reps, master_seed).read_text()))
    except (OSError, ValueError, TypeError):
        return None
    if (table.method, table.T, table.reps, table.master_seed) != (
            method, spec.T, reps, master_seed):
        return None
    return table

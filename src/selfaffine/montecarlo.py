"""Replication engine, empirical critical values and power functions."""
from __future__ import annotations

import base64
import hashlib
import json
import logging
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import AllReplicationsFailed, TooFewValues
from .methods import estimate_blocks
# not called here: kept as module attributes so that perfbench's traced run,
# which rebinds montecarlo.derive_seed, montecarlo.estimate_point and
# montecarlo.generate, still finds them
from .methods import estimate_point  # noqa: F401
from .rng import derive_seed  # noqa: F401
from .rng import as_int, derive_seeds
from .simulate import SimulationSpec, generate_block
from .simulate import generate  # noqa: F401

DEFAULT_LEVELS = (0.10, 0.05, 0.01)
DEFAULT_REPS = 5000

CACHE_SCHEMA_VERSION = 3

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CriticalValueTable:
    """One estimator's estimates over the replications of one spec: the null
    table that serves critical values at any level, and the sample that power
    rates and bias rows read. Every table, whether the engine, a caller or a
    cache file builds it, meets the one rule set that `__post_init__` checks."""

    method: str
    T: int
    mean: float  # mean and sd keep the replication order's bits; `null` is sorted
    sd: float
    null: bytes = field(repr=False)  # ascending successful estimates, little-endian float64
    reps: int
    master_seed: int
    failures: int = 0
    failures_by_kind: dict[str, int] = field(default_factory=dict)  # exception name -> count

    def __post_init__(self):
        # a damaged cache file's field raises TypeError or ValueError here
        object.__setattr__(self, "failures_by_kind", dict(self.failures_by_kind))
        kinds = tuple(self.failures_by_kind.values())
        counts = (self.T, self.reps, self.master_seed, self.failures, *kinds)
        if not all(type(v) is int for v in counts):  # bools are not ints here
            raise TypeError("T, reps, master_seed, failures and each count by kind must be ints")
        # so a file from before failures_by_kind existed is a miss if it had failures
        if min(kinds, default=1) < 1 or sum(kinds) != self.failures:
            raise ValueError("failures_by_kind must be positive counts adding up to failures")
        values = self.sample  # ValueError unless whole float64s
        if len(values) + self.failures != self.reps:
            raise ValueError("the sample and failures must account for every replication")
        if not (len(values) and np.isfinite(values).all() and (values[1:] >= values[:-1]).all()):
            raise ValueError("the null sample is empty, or not finite and ascending")
        if not (type(self.mean) is float and math.isfinite(self.mean) and type(self.sd) is float
                and (math.isnan(self.sd) if len(values) < 2 else 0.0 <= self.sd < math.inf)):
            raise ValueError("mean must be finite, and sd finite and >= 0 or NaN below 2 values")

    @property
    def sample(self) -> np.ndarray:
        """The successful estimates, ascending; read-only."""
        return np.frombuffer(self.null, dtype="<f8")

    def cutoff(self, level: float) -> float:
        """Nearest-rank percentile: rank ceil((1-level)*count) of the ascending sample."""
        if not 0.0 < level < 1.0:
            raise ValueError(f"level {level} does not lie in (0, 1)")
        return float(self.sample[math.ceil((1.0 - level) * len(self.sample)) - 1])

    @property
    def cutoffs(self) -> tuple[tuple[float, float], ...]:
        """(level, cutoff) at each of `DEFAULT_LEVELS`, largest level first."""
        return tuple((level, self.cutoff(level)) for level in DEFAULT_LEVELS)


@dataclass(frozen=True)
class PowerResult:
    """Rejection rate of one test against one alternative."""

    method: str
    spec: SimulationSpec
    level: float
    rejection_rate: float
    reps_used: int
    failures: int

    def __post_init__(self):
        if not 0.0 <= self.rejection_rate <= 1.0:
            raise ValueError("rejection rate must lie in [0, 1]")


#: values in a block of estimated replications: about this many (512 KiB)
#: amortise numpy's per-call overhead over many rows, where larger blocks
#: cost more per row: 128 rows at T=2000 (2 MiB) ran `rra` 37% slower than 64
_BLOCK_VALUES = 1 << 16
#: the fewest replications estimated together, at any length
_MIN_BLOCK_ROWS = 64


def _block_rows(T: int) -> int:
    """Replications of length `T` estimated together: the most multiples of
    `_MIN_BLOCK_ROWS` rows that hold at most `_BLOCK_VALUES` values, and
    never fewer than `_MIN_BLOCK_ROWS` (128 rows at T=383, 64 from T=1025 on)."""
    return _MIN_BLOCK_ROWS * max(1, _BLOCK_VALUES // (_MIN_BLOCK_ROWS * T))


def _chunks(spec: SimulationSpec, reps: int, workers: int) -> list[tuple[int, int]]:
    """The (lo, hi) replication ranges generated together, which are also the
    unit of parallel work: the fewest chunks of at most `spec.chunk_rows` rows
    (`_block_rows(T)` if None), as many for each worker, one row apart at most
    and the taller first, so each fits in the memory the one before it freed."""
    count = -(-reps // (spec.chunk_rows or _block_rows(spec.T)))
    count = min(-(-count // workers) * workers, reps)
    q, r = divmod(reps, count)
    return [(i * q + min(i, r), (i + 1) * q + min(i + 1, r)) for i in range(count)]


def _run_chunk(spec: SimulationSpec, methods: tuple[str, ...],
               seeds: np.ndarray) -> dict[str, tuple[np.ndarray, Counter]]:
    """The replications of `seeds`, generated at once and estimated by every
    method a block of `_block_rows(T)` rows at a time.

    Per method: the estimates of the rows that succeed, in row order, and the
    count of the others by the name of the exception that failed them. A row
    that fails generation keeps that failure, whatever its estimate.
    """
    X, lost = generate_block(spec, seeds)
    rows = _block_rows(spec.T)
    values, errors = {m: [] for m in methods}, {m: {} for m in methods}
    for a in range(0, len(seeds), rows):
        for method, fit in estimate_blocks(methods, X[a:a + rows]).items():
            values[method].append(fit.values)
            errors[method].update({a + i: exc for i, exc in fit.errors.items()})
    out = {}
    for method in methods:
        errors[method].update(lost)
        out[method] = (np.delete(np.concatenate(values[method]), list(errors[method])),
                       Counter(type(exc).__name__ for exc in errors[method].values()))
    return out


def _table(method: str, T: int, reps: int, master_seed: int, values: np.ndarray,
           by_kind: dict[str, int]) -> CriticalValueTable:
    """The table of `method`'s successful estimates `values`, in replication
    order: mean and sd keep that order's bits, and `null` is sorted."""
    return CriticalValueTable(
        method=method, T=T, mean=float(values.mean()),
        # NaN, without numpy's warning, when fewer than two rows succeed
        sd=float(values.std(ddof=1)) if len(values) > 1 else math.nan,
        null=np.sort(values).astype("<f8").tobytes(), reps=reps, master_seed=master_seed,
        failures=reps - len(values), failures_by_kind=dict(sorted(by_kind.items())))


def check_request(reps: int, master_seed: int, workers: int) -> tuple[int, int, int]:
    """The request as ints (`rng.as_int`), once reps and workers are at least 1."""
    reps, workers = as_int(reps, "reps"), as_int(workers, "workers")
    for name, count in (("reps", reps), ("workers", workers)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1")
    return reps, as_int(master_seed, "master_seed"), workers


def replicate(spec: SimulationSpec, methods, reps: int, master_seed: int,
              workers: int = 1) -> dict[str, CriticalValueTable]:
    """Each method's table of estimates on the same `reps` independent replications of `spec`.

    Replication i draws from the sub-stream (master_seed, i), so results do
    not depend on the worker count or scheduling; the table's seeds are
    derived in one pass. Replications are generated in chunks of rows (see
    `_chunks`) and every method runs on each block of `_block_rows(T)`
    rows; a row's estimate is bit-identical to the one-row
    estimate of the same series. Estimator failures are recorded by exception
    type, not fatal. At most one worker process runs per chunk and per CPU.
    """
    methods = tuple(methods)
    reps, master_seed, workers = check_request(reps, master_seed, workers)
    workers = min(workers, os.cpu_count() or 1)
    seeds = derive_seeds(master_seed, 0, reps)
    chunks = [seeds[lo:hi] for lo, hi in _chunks(spec, reps, workers)]
    workers = min(workers, len(chunks))
    if workers == 1:
        parts = [_run_chunk(spec, methods, chunk) for chunk in chunks]
    else:
        # imported here: concurrent.futures.process and multiprocessing are
        # milliseconds of every start-up that runs one worker
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_chunk, repeat(spec), repeat(methods), chunks))
    tables = {}
    for method in methods:
        values = np.concatenate([part[method][0] for part in parts])
        by_kind = sum((part[method][1] for part in parts), Counter())
        if not len(values):
            kinds = ", ".join(f"{kind}: {count}" for kind, count in sorted(by_kind.items()))
            raise AllReplicationsFailed(f"all {reps} replications of {method} failed ({kinds})")
        tables[method] = _table(method, spec.T, reps, master_seed, values, by_kind)
    return tables


def run_replications(spec: SimulationSpec, method: str, reps: int,
                     master_seed: int, workers: int = 1) -> CriticalValueTable:
    """Estimate `method` on `reps` independent replications of `spec`; see
    `replicate`."""
    return replicate(spec, (method,), reps, master_seed, workers=workers)[method]


def check_levels(levels) -> tuple[float, ...]:
    """`levels` as floats, largest first, once they are distinct and lie in (0, 1)."""
    if not all(0.0 < level < 1.0 for level in levels) or len(set(levels)) != len(levels):
        raise ValueError(f"levels {tuple(levels)} must be distinct and lie in (0, 1)")
    return tuple(sorted(map(float, levels), reverse=True))


def critical_values(table: CriticalValueTable) -> CriticalValueTable:
    """`table`, once it holds the 100 successful replications a null table needs."""
    if len(table.sample) < 100:
        raise TooFewValues(f"{len(table.sample)} successful replications, fewer than 100")
    return table


def build_tables(spec: SimulationSpec, methods, reps: int, master_seed: int, workers: int = 1,
                 cache_dir: str | Path | None = None) -> dict[str, CriticalValueTable]:
    """Monte Carlo null tables for every method under `spec`, with caching.

    This is the one way to a null table. Cached tables are loaded first; the
    missing methods are simulated in one `replicate` pass over shared
    replications, and each table is cached in its own file. A table holds
    its whole null sample, so it serves a cutoff at any level.
    """
    if as_int(reps, "reps") < 100:  # fewer cannot give the 100 successful replications it needs
        raise TooFewValues("need at least 100 replications")
    reps, master_seed, workers = check_request(reps, master_seed, workers)  # as `replicate`
    methods = tuple(methods)
    tables = {}
    if cache_dir is not None:
        for method in methods:
            table = load_table(cache_dir, spec, method, reps, master_seed)
            if table is not None:
                tables[method] = table
    missing = [m for m in methods if m not in tables]
    if missing:
        for method, table in replicate(spec, missing, reps, master_seed,
                                       workers=workers).items():
            tables[method] = critical_values(table)
            if cache_dir is not None:
                save_table(tables[method], spec, cache_dir)
    return {m: tables[m] for m in methods}


def build_critical_values(spec: SimulationSpec, method: str, reps: int,
                          master_seed: int, workers: int = 1,
                          cache_dir: str | Path | None = None) -> CriticalValueTable:
    """The Monte Carlo null table of `method` under `spec`; see `build_tables`."""
    return build_tables(spec, (method,), reps, master_seed, workers=workers,
                        cache_dir=cache_dir)[method]


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
    run = run_replications(alt, method, reps, master_seed, workers=workers)
    return PowerResult(method=method, spec=alt, level=level,
                       rejection_rate=float(np.mean(run.sample > cutoff)),
                       reps_used=len(run.sample), failures=run.failures)


# --- critical value cache (one JSON file per table, keyed on the null spec) ----

def _cache_path(cache_dir: str | Path, spec: SimulationSpec, method: str, reps: int,
                master_seed: int) -> Path:
    # vars gives T, the model's parameters and an ARModel's fields uncopied;
    # tolist() keeps full-precision AR coefficients and a numpy scalar's value.
    # The seed is dropped from a copy: `replace` would rerun the spec's validation
    params = {name: value for name, value in vars(spec).items() if name != "seed"}
    key = json.dumps([CACHE_SCHEMA_VERSION, spec.model, params, method, reps, master_seed],
                     sort_keys=True, default=lambda o: (
                         o.tolist() if isinstance(o, (np.ndarray, np.generic)) else vars(o)))
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return Path(cache_dir) / f"cv_{method}_T{spec.T}_{digest}.json"


def save_table(table: CriticalValueTable, spec: SimulationSpec,
               cache_dir: str | Path) -> Path:
    """Write `table`, built under `spec`, atomically; schema in the README."""
    path = _cache_path(cache_dir, spec, table.method, table.reps, table.master_seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    # the sample as a JSON list would take several times longer to load
    null = base64.b64encode(table.null).decode("ascii")
    tmp.write_text(json.dumps(dict(vars(table), null=null)))
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
        fields = json.loads(path.read_text())
        # a file of the cutoffs-only format has no "null": KeyError
        null = base64.b64decode(fields["null"], validate=True)
        table = critical_values(CriticalValueTable(**{**fields, "null": null}))
    except FileNotFoundError:
        return None
    except (OSError, ValueError, TypeError, KeyError, TooFewValues) as exc:
        problem = f"{type(exc).__name__}: {exc}"
    else:
        if (table.method, table.T, table.reps, table.master_seed) == (
                method, spec.T, reps, master_seed):
            return table
        problem = (f"it holds {table.method}/T={table.T} reps={table.reps} "
                   f"seed={table.master_seed}")
    _log.warning("ignoring cache file %s (%s); the table is simulated again", path, problem)
    return None

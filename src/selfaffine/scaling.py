"""Rescaled range analysis and partition-function fluctuation analysis."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllZeroIncrements, NonFiniteValue, TooShort, ZeroDispersion, ZeroPartition
from .timeseries import LogPricePath, ReturnsSeries, _freeze

#: log-grid start, step, and the fraction of T capping the largest scale
GRID_LNMIN = 1.6
GRID_STEP = 0.15
GRID_CAP = 0.1


@dataclass(frozen=True)
class ScaleGrid:
    """Ascending block sizes used for one scaling regression."""

    T: int
    scales: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "scales", tuple(int(n) for n in self.scales))
        if len(self.scales) < 3:
            raise TooShort("scale grid needs at least three scales")
        if any(b <= a for a, b in zip(self.scales, self.scales[1:])):
            raise ValueError("scales must be strictly ascending")
        if self.scales[0] < 5 or self.scales[-1] > GRID_CAP * self.T:
            raise ValueError("scales must lie in [5, 0.1*T]")


def time_scale_grid(T: int) -> ScaleGrid:
    """Scale grid on ln(n) = 1.6, 1.75, ... up to the quantized cap ln(0.1*T).

    The cap is 0.15*int(ln(0.1*T)/0.15) with int rounding down; each grid
    point is rounded half-up to an integer and duplicates are dropped.
    """
    if T < 100:
        raise TooShort("need T >= 100 for the time-scale grid")
    ln_max = GRID_STEP * math.floor(math.log(GRID_CAP * T) / GRID_STEP)
    scales: list[int] = []
    k = 0
    while GRID_LNMIN + GRID_STEP * k <= ln_max + 1e-9:
        scales.append(int(math.floor(math.exp(GRID_LNMIN + GRID_STEP * k) + 0.5)))
        k += 1
    scales = sorted(set(scales))
    if len(scales) < 3:
        raise TooShort(f"grid for T={T} has fewer than three scales")
    return ScaleGrid(T=T, scales=tuple(scales))


@dataclass(frozen=True)
class QGrid:
    """Moment orders for the partition function."""

    variant: str
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(q) for q in self.values))
        if not self.values or any(q <= 0 for q in self.values):
            raise ValueError("q values must be positive")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("q values must be strictly ascending")


_Q_VARIANTS = {
    "fa1": tuple(round(0.1 * k, 10) for k in range(1, 11)),
    "fa2": tuple(round(0.3 * k, 10) for k in range(1, 11)),
    "fa3": tuple(round(0.5 * k, 10) for k in range(1, 11)),
}


def qgrid(variant: str) -> QGrid:
    """The preset moment grids fa1/fa2/fa3."""
    try:
        return QGrid(variant=variant, values=_Q_VARIANTS[variant])
    except KeyError:
        raise ValueError(f"unknown q-grid variant {variant!r}") from None


@dataclass(frozen=True)
class HurstEstimate:
    """Point estimate with its regression diagnostics."""

    H: float
    method: str
    intercepts: tuple[float, ...]
    n_points: int
    residual_sse: float

    def __post_init__(self):
        if not math.isfinite(self.H):
            raise NonFiniteValue("estimate must be finite")

    @property
    def value(self) -> float:
        return self.H

    @property
    def intercept(self) -> float:
        return self.intercepts[0] if self.intercepts else math.nan


def _block_ratios(seg: np.ndarray, M: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R_m/S_m over M contiguous blocks of one subdivision pass, per row of
    `seg`, which rows hold a constant block (their ratios are not finite), and
    which hold a block whose dispersion overflows (its ratio reads 0)."""
    b = seg.reshape(len(seg), M, n)
    mu = b.mean(axis=2)
    dev = b - mu[:, :, None]
    S = np.sqrt((dev * dev).mean(axis=2))
    # the full-block cumulative deviation is analytically zero; pin it so the
    # range always includes that endpoint
    if 8 * n <= len(seg) * M:
        # many short blocks: the reductions below would pay one inner loop per
        # block, so step over the block offset instead, updating every block's
        # partial sum and running extremes at once (the same left fold as
        # cumsum, so the same bits)
        x = dev[:, :, 0].copy()
        hi, lo = np.maximum(x, 0.0), np.minimum(x, 0.0)
        for k in range(1, n - 1):
            x += dev[:, :, k]
            np.maximum(hi, x, out=hi)
            np.minimum(lo, x, out=lo)
    else:
        x = np.cumsum(dev, axis=2)
        x[:, :, -1] = 0.0
        hi, lo = x.max(axis=2), x.min(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (hi - lo) / S, np.any(S == 0.0, axis=1), np.any(np.isinf(S), axis=1)


def _rs_rows(X: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-pass average R/S at scale n for every row of X, the rows with a
    constant block, and the rows with a block whose dispersion overflows."""
    T = X.shape[1]
    M = T // n
    first, zero, overflow = _block_ratios(X[:, : M * n], M, n)
    L = T - M * n
    second = first
    if L:
        second, zero2, overflow2 = _block_ratios(X[:, L : L + M * n], M, n)
        zero, overflow = zero | zero2, overflow | overflow2
    return (first.sum(axis=1) + second.sum(axis=1)) / (2 * M), zero, overflow


def rs_statistic(r: ReturnsSeries, n: int) -> float:
    """Average rescaled range over 2M blocks at time scale n.

    Blocks start at the first observation; when M*n < T a second pass starts
    at observation L+1 with L = T - n*M, otherwise the first pass is counted
    twice.
    """
    T = len(r)
    if not 2 <= n <= T:
        raise ValueError(f"scale n={n} out of range for T={T}")
    with np.errstate(over="ignore"):  # raised below as NonFiniteValue
        rs, zero, overflow = _rs_rows(r.values[None, :], n)
    if zero[0]:
        raise ZeroDispersion(f"constant block at scale {n}")
    if overflow[0]:
        raise NonFiniteValue(f"block dispersion overflows at scale {n}")
    return float(rs[0])


def _ols_slopes(x: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """OLS slope of each row of Y on the regressor x."""
    xd = x - x.mean()
    with np.errstate(invalid="ignore"):  # failed rows hold non-finite points
        return np.sum(xd * (Y - Y.mean(axis=1, keepdims=True)), axis=1) / np.sum(xd * xd)


def _rra_points(X: np.ndarray, grid: ScaleGrid) -> tuple[np.ndarray, dict]:
    """ln[(R/S)_n] over the grid for every row of X, and each failed row's error."""
    cols, errors = [], {}
    for n in grid.scales:
        rs, zero, overflow = _rs_rows(X, n)
        for i in np.flatnonzero(zero):
            errors.setdefault(int(i), ZeroDispersion(f"constant block at scale {n}"))
        for i in np.flatnonzero(overflow):
            errors.setdefault(int(i), NonFiniteValue(f"block dispersion overflows at scale {n}"))
        cols.append(rs)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(np.stack(cols, axis=1)), errors


def rra_block(X: np.ndarray) -> tuple[np.ndarray, dict]:
    """RRA Hurst exponent of every row of X, and each failed row's error."""
    grid = time_scale_grid(X.shape[1])
    Y, errors = _rra_points(X, grid)
    return _ols_slopes(np.log(grid.scales), Y), errors


def estimate_rra(r: ReturnsSeries, grid: ScaleGrid | None = None) -> HurstEstimate:
    """Hurst exponent: OLS slope of ln[(R/S)_n] on ln(n) over the grid."""
    if grid is None:
        grid = time_scale_grid(len(r))
    Y, errors = _rra_points(r.values[None, :], grid)
    if errors:
        raise errors[0]
    x = np.log(grid.scales)
    H = float(_ols_slopes(x, Y)[0])
    y = Y[0]
    intercept = float(y.mean() - H * x.mean())
    resid = y - intercept - H * x
    return HurstEstimate(H=H, method="rra", intercepts=(intercept,),
                         n_points=len(grid.scales), residual_sse=float(resid @ resid))


def _block_increments(P: np.ndarray, n: int) -> np.ndarray:
    """|p_{mn} - p_{(m-1)n}| over both subdivision passes (2M values per row of P)."""
    T = P.shape[1] - 1
    M = T // n
    v1 = np.abs(np.diff(P[:, : M * n + 1 : n], axis=1))
    L = T - M * n
    v2 = np.abs(np.diff(P[:, L : L + M * n + 1 : n], axis=1)) if L else v1
    return np.concatenate([v1, v2], axis=1)


def partition_function(p: LogPricePath, n: int, q: float) -> float:
    """q-th order partition function at time scale n: half the sum of v_m^q."""
    T = len(p) - 1
    if not 2 <= n <= T:
        raise ValueError(f"scale n={n} out of range for T={T}")
    if q <= 0:
        raise ValueError("q must be positive")
    v = _block_increments(p.values[None, :], n)[0]
    if not np.any(v > 0.0):
        raise AllZeroIncrements(f"all block increments are zero at scale {n}")
    return float(0.5 * np.sum(v ** q))


def _fa_points(X: np.ndarray, q: np.ndarray, grid: ScaleGrid) -> tuple[np.ndarray, dict]:
    """ln S_q(T,n) over the (q, n) grid for every row of X, shape (rows, q, n),
    and each failed row's error."""
    P = np.concatenate([np.zeros((len(X), 1)), np.cumsum(X, axis=1)], axis=1)
    lnS = np.empty((len(X), len(q), len(grid.scales)))
    errors = {}
    for j, n in enumerate(grid.scales):
        v = _block_increments(P, n)
        S = 0.5 * np.power(v[:, None, :], q[None, :, None]).sum(axis=2)
        for i in np.flatnonzero(np.any(S <= 0.0, axis=1)):
            errors.setdefault(int(i), ZeroPartition(f"zero partition function at scale {n}"))
        with np.errstate(divide="ignore", invalid="ignore"):
            lnS[:, :, j] = np.log(S)
    return lnS, errors


def _fa_slopes(lnS: np.ndarray, q: np.ndarray, lnn: np.ndarray) -> np.ndarray:
    """Within-q demeaned OLS slope of (ln S_q + ln n) on q*ln n, per row."""
    X = q[:, None] * lnn[None, :]
    Xd = X - X.mean(axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):  # failed rows hold non-finite points
        Y = lnS + lnn
        Yd = Y - Y.mean(axis=2, keepdims=True)
        return np.sum(Xd * Yd, axis=(1, 2)) / np.sum(Xd * Xd)


def fa_block(X: np.ndarray, qs: QGrid) -> tuple[np.ndarray, dict]:
    """Fluctuation-analysis Hurst exponent of every row of X, and each failed
    row's error."""
    grid = time_scale_grid(X.shape[1])
    q = np.asarray(qs.values)
    lnS, errors = _fa_points(X, q, grid)
    return _fa_slopes(lnS, q, np.log(grid.scales)), errors


def estimate_fa(r: ReturnsSeries, qs: QGrid,
                grid: ScaleGrid | None = None) -> HurstEstimate:
    """Fluctuation-analysis Hurst exponent from the fixed-effects fit.

    Stacks ln S_q(T,n) over the full (q, n) grid and fits per-q intercepts
    a(q) with one slope parameter through slope(q) = -1 + H*q, solved in
    closed form by within-q demeaned OLS of (ln S_q + ln n) on q*ln n.
    """
    if grid is None:
        grid = time_scale_grid(len(r))
    q = np.asarray(qs.values)
    lnn = np.log(grid.scales)
    lnS, errors = _fa_points(r.values[None, :], q, grid)
    if errors:
        raise errors[0]
    H = float(_fa_slopes(lnS, q, lnn)[0])
    lnS = lnS[0]
    a = lnS.mean(axis=1) - (H * q - 1.0) * lnn.mean()
    resid = lnS - a[:, None] - (H * q[:, None] - 1.0) * lnn[None, :]
    return HurstEstimate(H=H, method=f"fa:{qs.variant}", intercepts=tuple(a),
                         n_points=lnS.size, residual_sse=float(np.sum(resid * resid)))

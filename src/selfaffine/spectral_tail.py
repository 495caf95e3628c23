"""Log-periodogram estimators of d and order-statistic tail estimators of H."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadOrdinateCount,
    NonFiniteValue,
    NonPositiveTail,
    TooShort,
    ZeroOrdinate,
)
from .scaling import HurstEstimate
from .timeseries import ReturnsSeries, _freeze

#: bandwidth exponents: m = T^0.5 ordinates for GPH, m = T^0.9 for Robinson
GPH_EXPONENT = 0.5
ROBINSON_EXPONENT = 0.9
#: tail fraction used by the order-statistic estimators
TAIL_FRACTION = 0.05


@dataclass(frozen=True)
class Periodogram:
    """Ordinates I(lambda_j) at the harmonic frequencies j = 1..m."""

    T: int
    ordinates: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ordinates", _freeze(self.ordinates))
        if np.any(~np.isfinite(self.ordinates)) or np.any(self.ordinates < 0):
            raise ValueError("ordinates must be finite and non-negative")


@dataclass(frozen=True)
class DEstimate:
    """Fractional-integration order estimate with its regression diagnostics."""

    d: float
    method: str
    m: int
    standard_error: float
    intercept: float = float("nan")

    def __post_init__(self):
        if not math.isfinite(self.d):
            raise NonFiniteValue("estimate must be finite")
        if self.m < 3:
            raise ValueError("need at least three ordinates")

    @property
    def value(self) -> float:
        return self.d


def _ordinates(X: np.ndarray, m: int) -> np.ndarray:
    """Periodogram ordinates j = 1..m of every row of X."""
    T = X.shape[1]
    return np.abs(np.fft.rfft(X, axis=1)[:, 1 : m + 1]) ** 2 / (2.0 * math.pi * T)


def periodogram(r: ReturnsSeries, m: int) -> Periodogram:
    """I(lambda_j) = |sum_t x_t exp(-i lambda_j t)|^2 / (2 pi T), j = 1..m."""
    T = len(r)
    if not 1 <= m <= (T - 1) // 2:
        raise BadOrdinateCount(f"m must lie in [1, {(T - 1) // 2}], got {m}")
    return Periodogram(T=T, ordinates=_ordinates(r.values[None, :], m)[0])


def _log_periodogram(X: np.ndarray, m: int) -> tuple[np.ndarray, dict]:
    """ln I(lambda_j), j = 1..m, for every row of X, and each failed row's error."""
    I = _ordinates(X, m)
    errors = {int(i): ZeroOrdinate("zero periodogram ordinate in the regression band")
              for i in np.flatnonzero(np.any(I == 0.0, axis=1))}
    with np.errstate(divide="ignore"):
        return np.log(I), errors


def _dot_slopes(x: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """OLS slope of each row of Y on the regressor x.

    One dot product per row: a matrix product would round differently from
    the one-row case.
    """
    xd = x - x.mean()
    with np.errstate(invalid="ignore"):  # failed rows hold non-finite points
        Yc = Y - Y.mean(axis=1, keepdims=True)
    return np.array([xd @ y for y in Yc]) / float(xd @ xd)


def gph_regressor(lam: np.ndarray) -> np.ndarray:
    """-2 ln|1 - exp(-i lambda)| = -2 ln(2 sin(lambda/2))."""
    return -2.0 * np.log(2.0 * np.sin(lam / 2.0))


def _regression(method: str, T: int) -> tuple[int, np.ndarray]:
    """Ordinate count m and regressor: the GPH regressor over m = T^0.5
    ordinates, or ln(lambda_j) over m = T^0.9 capped at (T-1)/2 (Robinson)."""
    if T < 100:
        raise TooShort("need T >= 100")
    if method == "gph":
        m = int(math.floor(T ** GPH_EXPONENT))
    else:
        m = min(int(math.floor(T ** ROBINSON_EXPONENT)), (T - 1) // 2)
    lam = 2.0 * math.pi * np.arange(1, m + 1) / T
    return m, gph_regressor(lam) if method == "gph" else np.log(lam)


def log_periodogram_block(X: np.ndarray, method: str) -> tuple[np.ndarray, dict]:
    """GPH or Robinson estimate of d for every row of X, and each failed row's
    error; the Robinson slope estimates -2d."""
    m, x = _regression(method, X.shape[1])
    Y, errors = _log_periodogram(X, m)
    slopes = _dot_slopes(x, Y)
    return (slopes if method == "gph" else -slopes / 2.0), errors


def _log_periodogram_fit(r: ReturnsSeries, method: str) -> tuple[int, float, float, float]:
    """m, and the OLS slope, intercept and slope standard error of ln I on the
    method's regressor for one series."""
    m, x = _regression(method, len(r))
    Y, errors = _log_periodogram(r.values[None, :], m)
    if errors:
        raise errors[0]
    slope = float(_dot_slopes(x, Y)[0])
    y = Y[0]
    xd = x - x.mean()
    intercept = float(y.mean() - slope * x.mean())
    resid = y - intercept - slope * x
    dof = max(len(y) - 2, 1)
    se = math.sqrt(float(resid @ resid) / dof / float(xd @ xd))
    return m, slope, intercept, se


def estimate_gph(r: ReturnsSeries) -> DEstimate:
    """Log-periodogram estimate of d over m = T^0.5 ordinates."""
    m, slope, intercept, se = _log_periodogram_fit(r, "gph")
    return DEstimate(d=slope, method="gph", m=m, standard_error=se,
                     intercept=intercept)


def estimate_robinson(r: ReturnsSeries) -> DEstimate:
    """Log-periodogram regression on ln(lambda_j) over m = T^0.9 ordinates.

    The slope b estimates -2d; m is capped at the largest usable harmonic
    index (T-1)/2.
    """
    m, slope, intercept, se = _log_periodogram_fit(r, "robinson")
    return DEstimate(d=-slope / 2.0, method="robinson", m=m,
                     standard_error=se / 2.0, intercept=intercept)


TAIL_METHODS = ("pickands", "hill", "hr")


def _tail_size(method: str, T: int) -> int:
    """Tail observation count m = 0.05*T."""
    if method not in TAIL_METHODS:
        raise ValueError(f"unknown tail method {method!r}")
    if T < 100:
        raise TooShort("need T >= 100")
    return int(math.floor(TAIL_FRACTION * T))


def _log(a: np.ndarray) -> np.ndarray:
    """math.log of each entry: the one-row formulas were written with the
    scalar log, whose last bit can differ from numpy's vectorised one."""
    return np.array([math.log(v) for v in a.tolist()])


def tail_block(X: np.ndarray, method: str) -> tuple[np.ndarray, dict]:
    """Order-statistic estimate of H for every row of X, and each failed row's
    error; see `estimate_tail`."""
    m = _tail_size(method, X.shape[1])
    # descending, ties kept in their original order
    x = -np.sort(-X, axis=1, kind="stable")  # x[:, 0] = x_(1) >= x[:, 1] = x_(2) >= ...
    if method == "pickands":
        d1 = x[:, m - 1] - x[:, 2 * m - 1]
        d2 = x[:, 2 * m - 1] - x[:, 4 * m - 1]
        bad = (d1 <= 0.0) | (d2 <= 0.0)
        message = "tied boundary order statistics"
        H = (_log(np.where(bad, 1.0, d1)) - _log(np.where(bad, 1.0, d2))) / math.log(2.0)
    elif method == "hill":
        bad = x[:, m - 1] <= 0.0
        message = "x_(m) must be positive"
        with np.errstate(divide="ignore", invalid="ignore"):
            H = np.log(x[:, : m - 1]).mean(axis=1) - _log(np.where(bad, 1.0, x[:, m - 1]))
    else:  # hr
        bad = (x[:, 0] <= 0.0) | (x[:, m - 1] <= 0.0)
        message = "x_(1) and x_(m) must be positive"
        H = (_log(np.where(bad, 1.0, x[:, 0]))
             - _log(np.where(bad, 1.0, x[:, m - 1]))) / math.log(m)
    return H, {int(i): NonPositiveTail(message) for i in np.flatnonzero(bad)}


def estimate_tail(r: ReturnsSeries, method: str) -> HurstEstimate:
    """Order-statistic estimate of H from the upper tail of raw returns.

    Values are sorted descending (ties broken by original index) and the
    Pickands, Hill or de Haan-Resnick formula is applied with m = 0.05*T
    tail observations; alpha is recoverable as 1/H.
    """
    m = _tail_size(method, len(r))
    H, errors = tail_block(r.values[None, :], method)
    if errors:
        raise errors[0]
    return HurstEstimate(H=float(H[0]), method=method, intercepts=(),
                         n_points=m, residual_sse=0.0)

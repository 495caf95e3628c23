"""Log-periodogram estimators of d and order-statistic tail estimators of H."""
from __future__ import annotations

import math

import numpy as np

from .errors import BadOrdinateCount, NonFiniteValue, NonPositiveTail, TooShort, ZeroOrdinate
from .scaling import BlockFit
from .timeseries import ReturnsSeries, _freeze

#: bandwidth exponents: m = T^0.5 ordinates for GPH, m = T^0.9 for Robinson
GPH_EXPONENT = 0.5
ROBINSON_EXPONENT = 0.9
#: tail fraction used by the order-statistic estimators
TAIL_FRACTION = 0.05


def _ordinates(X: np.ndarray, m: int) -> np.ndarray:
    """The periodogram ordinates j = 1..m of every row of X."""
    T = X.shape[1]
    return np.abs(np.fft.rfft(X, axis=1)[:, 1 : m + 1]) ** 2 / (2.0 * math.pi * T)


def periodogram(r: ReturnsSeries, m: int) -> np.ndarray:
    """I(lambda_j) = |sum_t x_t exp(-i lambda_j t)|^2 / (2 pi T), j = 1..m,
    read-only."""
    T = len(r)
    if not 1 <= m <= (T - 1) // 2:
        raise BadOrdinateCount(f"m must lie in [1, {(T - 1) // 2}], got {m}")
    with np.errstate(over="ignore"):  # raised below as NonFiniteValue
        I = _ordinates(r.values[None, :], m)[0]
    if not np.all(np.isfinite(I)):
        raise NonFiniteValue("periodogram ordinate overflows")
    return _freeze(I)


def _log_periodogram(X: np.ndarray, m: int) -> tuple[np.ndarray, dict]:
    """ln I(lambda_j), j = 1..m, for every row of X, and each failed row's
    error: a zero ordinate in the band, or else one that overflows, as
    `periodogram` fails it."""
    I = _ordinates(X, m)
    errors = {int(i): ZeroOrdinate("zero periodogram ordinate in the regression band")
              for i in np.flatnonzero(np.any(I == 0.0, axis=1))}
    for i in np.flatnonzero(~np.all(np.isfinite(I), axis=1)):
        errors.setdefault(int(i), NonFiniteValue("periodogram ordinate overflows"))
    return np.log(I), errors


def _dot_slopes(x: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """OLS slope and intercept of each row of Y on the regressor x.

    One dot product per row: a matrix product would round differently from
    the one-row case.
    """
    xbar, ybar = x.mean(), Y.mean(axis=1, keepdims=True)
    xd = x - xbar
    slopes = np.array([xd @ y for y in Y - ybar]) / float(xd @ xd)
    return slopes, ybar[:, 0] - slopes * xbar


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


def log_periodogram_block(X: np.ndarray, methods: tuple[str, ...]) -> list[BlockFit]:
    """GPH or Robinson estimate of d, for each of `methods`, of every row of
    X, and each failed row's error; the Robinson slope estimates -2d."""
    out = []
    for method in methods:
        m, x = _regression(method, X.shape[1])
        Y, errors = _log_periodogram(X, m)
        slopes, intercepts = _dot_slopes(x, Y)
        out.append(BlockFit(slopes if method == "gph" else -slopes / 2.0, errors, intercepts, m))
    return out


TAIL_METHODS = ("pickands", "hill", "hr")


def _tail_size(T: int) -> int:
    """Tail observation count m = 0.05*T."""
    if T < 100:
        raise TooShort("need T >= 100")
    return int(math.floor(TAIL_FRACTION * T))


def _log(a: np.ndarray) -> np.ndarray:
    """math.log of each entry: the one-row formulas were written with the
    scalar log, whose last bit can differ from numpy's vectorised one."""
    return np.array([math.log(v) for v in a.tolist()])


def tail_block(X: np.ndarray, methods: tuple[str, ...]) -> list[BlockFit]:
    """Order-statistic estimate of H, for each of `methods`, of every row of
    X, and each failed row's error.

    The k largest values of each row are sorted descending, k = 4m for
    Pickands and m for Hill and de Haan-Resnick, and the formula is applied
    with m = 0.05*T tail observations; alpha is recoverable as 1/H. Only the
    order of equal values can differ from a full sort, and no formula sees it:
    equal values give the same logs and differences, and the sign of a zero
    only matters in a row that fails as NonPositiveTail.
    """
    m, out = _tail_size(X.shape[1]), []
    for method in methods:
        k = 4 * m if method == "pickands" else m
        top = np.partition(-X, k - 1, axis=1)[:, :k]
        x = -np.sort(top, axis=1, kind="stable")  # x[:, 0] = x_(1) >= x[:, 1] = x_(2) >= ...
        if method == "pickands":
            d1 = x[:, m - 1] - x[:, 2 * m - 1]
            d2 = x[:, 2 * m - 1] - x[:, 4 * m - 1]
            bad = (d1 <= 0.0) | (d2 <= 0.0)
            message = "tied boundary order statistics"
            H = (_log(np.where(bad, 1.0, d1)) - _log(np.where(bad, 1.0, d2))) / math.log(2.0)
        elif method == "hill":
            bad = x[:, m - 1] <= 0.0
            message = "x_(m) must be positive"
            H = np.log(x[:, : m - 1]).mean(axis=1) - _log(np.where(bad, 1.0, x[:, m - 1]))
        else:  # hr
            bad = (x[:, 0] <= 0.0) | (x[:, m - 1] <= 0.0)
            message = "x_(1) and x_(m) must be positive"
            H = (_log(np.where(bad, 1.0, x[:, 0]))
                 - _log(np.where(bad, 1.0, x[:, m - 1]))) / math.log(m)
        out.append(BlockFit(H, {int(i): NonPositiveTail(message) for i in np.flatnonzero(bad)},
                            np.full(len(X), math.nan), m))
    return out

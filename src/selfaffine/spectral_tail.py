"""Log-periodogram estimators of d and order-statistic tail estimators of H."""
from __future__ import annotations

import math

import numpy as np

from .errors import BadOrdinateCount, NonFiniteValue, NonPositiveTail, TooShort, ZeroOrdinate
from .scaling import MIN_T, BlockFit
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


#: each log-periodogram method's bandwidth exponent e, over m = min(T^e, (T-1)/2)
#: ordinates, its regressor in lambda_j and the factor taking its slope to d
BANDS = {"gph": (GPH_EXPONENT, gph_regressor, 1.0), "robinson": (ROBINSON_EXPONENT, np.log, -0.5)}


def log_periodogram_block(X: np.ndarray, methods: tuple[str, ...]) -> list[BlockFit]:
    """GPH or Robinson estimate of d, for each of `methods`, of every row of
    X, and each failed row's error: a zero ordinate in its band, or else one
    that overflows, as `periodogram` fails it. One periodogram over the widest
    band asked for serves each method's leading ordinates."""
    T = X.shape[1]
    if T < MIN_T:
        raise TooShort(f"need T >= {MIN_T}")
    bands = [(min(int(T ** e), (T - 1) // 2), x, to_d) for e, x, to_d in map(BANDS.get, methods)]
    I = _ordinates(X, max(m for m, _, _ in bands))
    Y, out = np.log(I), []
    for m, regressor, to_d in bands:
        errors = {int(i): ZeroOrdinate("zero periodogram ordinate in the regression band")
                  for i in np.flatnonzero(np.any(I[:, :m] == 0.0, axis=1))}
        for i in np.flatnonzero(~np.all(np.isfinite(I[:, :m]), axis=1)):
            errors.setdefault(int(i), NonFiniteValue("periodogram ordinate overflows"))
        slopes, intercepts = _dot_slopes(regressor(2.0 * math.pi * np.arange(1, m + 1) / T),
                                         Y[:, :m])
        out.append(BlockFit(slopes * to_d, errors, intercepts, m))
    return out


#: the order statistics each tail method reads, in multiples of the tail size m
TAIL_DEPTHS = {"pickands": 4, "hill": 1, "hr": 1}
TAIL_METHODS = tuple(TAIL_DEPTHS)


def _log(a: np.ndarray) -> np.ndarray:
    """math.log of each entry: the one-row formulas were written with the
    scalar log, whose last bit can differ from numpy's vectorised one."""
    return np.array([math.log(v) for v in a.tolist()])


def tail_block(X: np.ndarray, methods: tuple[str, ...]) -> list[BlockFit]:
    """Order-statistic estimate of H, for each of `methods`, of every row of
    X, and each failed row's error.

    The k largest values of each row are sorted descending once, k = m times
    the deepest of `methods`' `TAIL_DEPTHS` with m = 0.05*T tail observations,
    and each formula reads the leading ones it needs; alpha is 1/H.
    Only the order of equal values can differ from a full sort, and no formula
    sees it: equal values give the same logs and differences, and the sign of
    a zero only matters in a row that fails as NonPositiveTail.
    """
    T = X.shape[1]
    if T < MIN_T:
        raise TooShort(f"need T >= {MIN_T}")
    m, out = int(math.floor(TAIL_FRACTION * T)), []
    k = m * max(map(TAIL_DEPTHS.get, methods))
    top = np.partition(-X, k - 1, axis=1)[:, :k]
    x = -np.sort(top, axis=1, kind="stable")  # x[:, 0] = x_(1) >= x[:, 1] = x_(2) >= ...
    for method in methods:
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

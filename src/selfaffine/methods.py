"""Registry mapping estimator tags to their block kernels.

A kernel takes a `(rows, T)` array of return series and gives every row's
point estimate (H or d) together with `{row: error}` for the rows that fail;
a failed row's estimate is meaningless and its error is the one the scalar
estimator raises. FA(1)-FA(3) share one kernel, `fa_block`, which serves
several q grids in one pass. The scalar API is the one-row case of the same
kernel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import NonFiniteValue, SelfAffineError
from .scaling import Q_GRIDS, _fa_points, _rra_points, fa_block, rra_block, time_scale_grid
from .spectral_tail import (
    TAIL_METHODS,
    _log_periodogram,
    _regression,
    _tail_size,
    log_periodogram_block,
    tail_block,
)
from .timeseries import ReturnsSeries

BlockResult = tuple[np.ndarray, dict[int, SelfAffineError]]
BlockKernel = Callable[[np.ndarray], BlockResult]

FA_METHODS = tuple(Q_GRIDS)
#: methods whose point value is d rather than H
D_METHODS = ("gph", "robinson")

#: the kernels of the methods other than FA(1)-FA(3), which share `fa_block`
_REGISTRY: dict[str, BlockKernel] = {
    "rra": rra_block,
    **{s: partial(log_periodogram_block, method=s) for s in D_METHODS},
    **{t: partial(tail_block, method=t) for t in TAIL_METHODS},
}

METHODS = ("rra", *FA_METHODS, *D_METHODS, *TAIL_METHODS)


def estimate_blocks(methods, X: np.ndarray) -> dict[str, BlockResult]:
    """Each method's point estimates of every row of X and the errors of the
    rows that fail, in the order of `methods`.

    The FA methods share one pass over the union of their q grids, and each
    keeps its own failures. A SelfAffineError that a kernel raises for the
    whole block (e.g. T too short) fails every row of each method it serves.
    A row whose estimate is not finite (its arithmetic overflowed) fails
    alone with NonFiniteValue.
    """
    methods = tuple(methods)
    for method in methods:
        if method not in Q_GRIDS and method not in _REGISTRY:
            raise ValueError(f"unknown method {method!r}")
    fa = tuple(dict.fromkeys(m for m in methods if m in Q_GRIDS))
    passes = [(fa, partial(fa_block, grids=[Q_GRIDS[m] for m in fa]))] if fa else []
    passes += [((m,), lambda X, kernel=_REGISTRY[m]: [kernel(X)])
               for m in methods if m not in Q_GRIDS]
    out = {}
    for served, kernel in passes:
        try:
            with np.errstate(all="ignore"):  # caught below and in the kernels, per row
                results = kernel(X)
        except SelfAffineError as exc:
            results = [(np.full(len(X), np.nan), dict.fromkeys(range(len(X)), exc))
                       for _ in served]
        for method, (values, errors) in zip(served, results):
            for i in np.flatnonzero(~np.isfinite(values)):
                errors.setdefault(int(i), NonFiniteValue("estimate must be finite"))
            out[method] = values, errors
    return {m: out[m] for m in methods}


def estimate_point(method: str, r: ReturnsSeries) -> float:
    """Scalar point estimate (H or d): the one-row case of the block kernel."""
    values, errors = estimate_blocks((method,), r.values[None, :])[method]
    if errors:
        raise errors[0]
    return float(values[0])


@dataclass(frozen=True)
class Estimate:
    """A point estimate with the intercept and point count of its regression
    line; the order-statistic methods fit no line, so their intercept is NaN
    and their point count is the number of tail observations."""

    method: str
    value: float
    intercept: float
    n_points: int


def estimate(method: str, r: ReturnsSeries) -> Estimate:
    """`estimate_point` plus its regression line, from the points it fits."""
    value = estimate_point(method, r)
    X, T = r.values[None, :], len(r)
    if method in TAIL_METHODS:
        return Estimate(method, value, math.nan, _tail_size(method, T))
    if method in D_METHODS:  # the Robinson slope is -2d
        m, x = _regression(method, T)
        y = _log_periodogram(X, m)[0][0]
        slope = value if method == "gph" else -2.0 * value
        return Estimate(method, value, float(y.mean() - slope * x.mean()), m)
    scales = time_scale_grid(T)
    lnn = np.log(scales)
    if method == "rra":
        y = _rra_points(X, scales)[0][0]
        return Estimate(method, value, float(y.mean() - value * lnn.mean()), len(scales))
    # the FA line of the smallest moment order, q_1: intercept a(q_1)
    q = Q_GRIDS[method]
    lnS = _fa_points(X, q, scales)[0]
    return Estimate(method, value, float(lnS[0].mean() - (value * q[0] - 1.0) * lnn.mean()),
                    lnS.size)

"""Registry mapping estimator tags to their block kernels.

A kernel takes a `(rows, T)` array of return series and gives every row's
regression line as a `BlockFit`: its point estimate (H or d), the intercept
and point count of the line it fits, and `{row: error}` for the rows that
fail; a failed row's estimate is meaningless and its error is the one the
scalar estimator raises. FA(1)-FA(3) share one kernel, `fa_block`, which
serves several q grids in one pass. The scalar API is the one-row case of
the same kernel.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import NonFiniteValue, SelfAffineError
from .scaling import Q_GRIDS, BlockFit, fa_block, rra_block
from .spectral_tail import TAIL_METHODS, log_periodogram_block, tail_block
from .timeseries import ReturnsSeries

FA_METHODS = tuple(Q_GRIDS)
#: methods whose point value is d rather than H
D_METHODS = ("gph", "robinson")

#: the kernels of the methods other than FA(1)-FA(3), which share `fa_block`
_REGISTRY: dict[str, Callable[[np.ndarray], BlockFit]] = {
    "rra": rra_block,
    **{s: partial(log_periodogram_block, method=s) for s in D_METHODS},
    **{t: partial(tail_block, method=t) for t in TAIL_METHODS},
}

METHODS = ("rra", *FA_METHODS, *D_METHODS, *TAIL_METHODS)


def estimate_blocks(methods, X: np.ndarray) -> dict[str, BlockFit]:
    """Each method's regression lines of every row of X and the errors of the
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
            results = [BlockFit(np.full(len(X), np.nan), dict.fromkeys(range(len(X)), exc),
                                np.full(len(X), np.nan), 0) for _ in served]
        for method, fit in zip(served, results):
            for i in np.flatnonzero(~np.isfinite(fit.values)):
                fit.errors.setdefault(int(i), NonFiniteValue("estimate must be finite"))
            out[method] = fit
    return {m: out[m] for m in methods}


@dataclass(frozen=True)
class Estimate:
    """A point estimate with the intercept and point count of its regression
    line, as `BlockFit` gives them."""

    method: str
    value: float
    intercept: float
    n_points: int


def estimate(method: str, r: ReturnsSeries) -> Estimate:
    """The point estimate and its regression line: the one-row case of the
    block kernel."""
    fit = estimate_blocks((method,), r.values[None, :])[method]
    if fit.errors:
        raise fit.errors[0]
    return Estimate(method, float(fit.values[0]), float(fit.intercepts[0]), fit.n_points)


def estimate_point(method: str, r: ReturnsSeries) -> float:
    """Scalar point estimate (H or d): the value of `estimate`."""
    return estimate(method, r).value

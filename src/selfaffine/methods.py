"""Registry mapping estimator tags to their block kernels.

A kernel takes a `(rows, T)` array of return series and the methods it
serves, and gives each one's regression line of every row as a `BlockFit`:
its point estimate (H or d), the intercept and point count of the line it
fits, and `{row: error}` for the rows that fail; a failed row's estimate is
meaningless and its error is the one the scalar estimator raises. FA(1)-FA(3)
share `fa_block`'s one pass over their q grids, GPH and Robinson one
periodogram and the tail methods one sort. The scalar API is the one-row
case of the same kernel.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteValue, SelfAffineError
from .scaling import Q_GRIDS, BlockFit, fa_block, rra_block
from .spectral_tail import BANDS, TAIL_METHODS, log_periodogram_block, tail_block
from .timeseries import ReturnsSeries

FA_METHODS = tuple(Q_GRIDS)
#: methods whose point value is d rather than H
D_METHODS = tuple(BANDS)

#: each method's kernel, `kernel(X, methods) -> [BlockFit per method]`
_REGISTRY: dict[str, Callable[[np.ndarray, tuple[str, ...]], list[BlockFit]]] = {
    "rra": rra_block,
    **dict.fromkeys(FA_METHODS, fa_block),
    **dict.fromkeys(D_METHODS, log_periodogram_block),
    **dict.fromkeys(TAIL_METHODS, tail_block),
}

METHODS = tuple(_REGISTRY)


def estimate_blocks(methods, X: np.ndarray) -> dict[str, BlockFit]:
    """Each method's regression lines of every row of X and the errors of the
    rows that fail, in the order of `methods`.

    Each kernel is called once, with the methods it serves, and each method
    keeps its own failures. A SelfAffineError that a kernel raises for the
    whole block (e.g. T too short) fails every row of each method it serves.
    A row whose estimate is not finite (its arithmetic overflowed) fails
    alone with NonFiniteValue.
    """
    methods = tuple(methods)
    passes = {}
    for method in dict.fromkeys(methods):
        if method not in _REGISTRY:
            raise ValueError(f"unknown method {method!r}")
        passes.setdefault(_REGISTRY[method], []).append(method)
    out = {}
    for kernel, served in passes.items():
        try:
            with np.errstate(all="ignore"):  # caught below and in the kernels, per row
                results = kernel(X, tuple(served))
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

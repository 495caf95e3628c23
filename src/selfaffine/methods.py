"""Registry mapping estimator tags to their block kernels.

A kernel takes a `(rows, T)` array of return series and gives every row's
point estimate (H or d) together with `{row: error}` for the rows that fail;
a failed row's estimate is meaningless and its error is the one the scalar
estimator raises. The scalar API is the one-row case of the same kernel.
"""
from __future__ import annotations

from functools import partial
from typing import Callable, Union

import numpy as np

from .errors import NonFiniteValue, SelfAffineError
from .scaling import HurstEstimate, estimate_fa, estimate_rra, fa_block, qgrid, rra_block
from .spectral_tail import (
    TAIL_METHODS,
    DEstimate,
    estimate_gph,
    estimate_robinson,
    estimate_tail,
    log_periodogram_block,
    tail_block,
)
from .timeseries import ReturnsSeries

Estimate = Union[HurstEstimate, DEstimate]
BlockKernel = Callable[[np.ndarray], tuple[np.ndarray, dict[int, SelfAffineError]]]

FA_METHODS = ("fa1", "fa2", "fa3")
#: methods whose point value is d rather than H
D_METHODS = ("gph", "robinson")

_REGISTRY: dict[str, BlockKernel] = {
    "rra": rra_block,
    **{v: partial(fa_block, qs=qgrid(v)) for v in FA_METHODS},
    **{s: partial(log_periodogram_block, method=s) for s in D_METHODS},
    **{t: partial(tail_block, method=t) for t in TAIL_METHODS},
}

METHODS = tuple(_REGISTRY)


def _kernel(method: str) -> BlockKernel:
    try:
        return _REGISTRY[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}") from None


def estimate_block(method: str, X: np.ndarray) -> tuple[np.ndarray, dict[int, SelfAffineError]]:
    """Point estimates of every row of X and the errors of the rows that fail.

    A row whose estimate is not finite (its arithmetic overflowed) fails
    alone with NonFiniteValue.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # caught below, per row
        values, errors = _kernel(method)(X)
    for i in np.flatnonzero(~np.isfinite(values)):
        errors.setdefault(int(i), NonFiniteValue("estimate must be finite"))
    return values, errors


def estimate_point(method: str, r: ReturnsSeries) -> float:
    """Scalar point estimate (H or d): the one-row case of the block kernel."""
    values, errors = estimate_block(method, r.values[None, :])
    if errors:
        raise errors[0]
    return float(values[0])


def estimate(method: str, r: ReturnsSeries) -> Estimate:
    """Run one estimator by tag, returning its full diagnostic object.

    Like `estimate_block`, it prints no warning when the arithmetic
    overflows: the estimate then fails with NonFiniteValue.
    """
    _kernel(method)
    with np.errstate(over="ignore", invalid="ignore"):
        if method in FA_METHODS:
            return estimate_fa(r, qgrid(method))
        if method in TAIL_METHODS:
            return estimate_tail(r, method)
        return {"rra": estimate_rra, "gph": estimate_gph,
                "robinson": estimate_robinson}[method](r)

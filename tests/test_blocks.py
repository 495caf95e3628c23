"""Block kernels: row i of a block estimate is the one-row estimate of row i,
bit for bit, and a failing row fails alone with the scalar path's error."""
import numpy as np
import pytest

from selfaffine import methods, scaling
from selfaffine.errors import (
    NonFiniteValue,
    NonPositiveTail,
    SelfAffineError,
    ZeroDispersion,
    ZeroOrdinate,
    ZeroPartition,
)
from selfaffine.scaling import time_scale_grid
from selfaffine.timeseries import ReturnsSeries

CONSTANT_ROW, OVERFLOW_ROW, NEGATIVE_ROW = 2, 3, 5
#: methods whose arithmetic overflows on OVERFLOW_ROW (the others work on logs
#: or on first powers, which stay finite)
OVERFLOWS = ("rra", "fa2", "fa3", "gph", "robinson")

CONSTANT_ERROR = {"rra": ZeroDispersion, "fa1": ZeroPartition, "fa2": ZeroPartition,
                  "fa3": ZeroPartition, "gph": ZeroOrdinate, "robinson": ZeroOrdinate,
                  "pickands": NonPositiveTail, "hill": NonPositiveTail,
                  "hr": NonPositiveTail}


def block(T):
    rng = np.random.default_rng(T)
    X = rng.standard_normal((9, T))
    X[CONSTANT_ROW] = 0.0
    X[OVERFLOW_ROW] *= 1e200
    X[NEGATIVE_ROW] = -np.abs(X[NEGATIVE_ROW]) - 0.01
    X[7] = rng.standard_t(2, T)
    return X


def scalar_outcome(method, x):
    try:
        return methods.estimate_point(method, ReturnsSeries(x))
    except SelfAffineError as exc:
        return type(exc)


@pytest.mark.parametrize("T", [100, 383, 2000])
@pytest.mark.parametrize("method", methods.METHODS)
def test_block_row_equals_one_row_estimate(method, T):
    X = block(T)
    values, errors = methods.estimate_block(method, X)
    for i, x in enumerate(X):
        got = type(errors[i]) if i in errors else float(values[i])
        assert got == scalar_outcome(method, x), f"row {i}"
    failing = ({CONSTANT_ROW} | ({NEGATIVE_ROW} if method in ("hill", "hr") else set())
               | ({OVERFLOW_ROW} if method in OVERFLOWS else set()))
    assert set(errors) == failing
    assert type(errors[CONSTANT_ROW]) is CONSTANT_ERROR[method]
    if method in OVERFLOWS:
        assert type(errors[OVERFLOW_ROW]) is NonFiniteValue
        with pytest.raises(NonFiniteValue):
            methods.estimate(method, ReturnsSeries(X[OVERFLOW_ROW]))


def test_unknown_method():
    with pytest.raises(ValueError):
        methods.estimate_block("dekkers", np.zeros((1, 200)))


def reduction_block_ratios(seg, M, n):
    """The R/S block ratios by three reductions along each block: cumsum, max
    and min. The reference for the kernel, whatever form it takes."""
    b = seg.reshape(len(seg), M, n)
    mu = b.mean(axis=2)
    dev = b - mu[:, :, None]
    S = np.sqrt((dev * dev).mean(axis=2))
    x = np.cumsum(dev, axis=2)
    x[:, :, -1] = 0.0
    R = x.max(axis=2) - x.min(axis=2)
    return R / S, np.any(S == 0.0, axis=1)


@pytest.mark.parametrize("rows", [1, 9, 64])
@pytest.mark.parametrize("T", [100, 383, 2000, 5000])
def test_block_ratios_equal_the_reduction_formula(T, rows):
    X = np.resize(block(T), (max(rows, 9), T))  # block(T)'s rows, cyclically
    for first in range(0, len(X), rows):
        for n in time_scale_grid(T).scales:
            M = T // n
            for start in {0, T - M * n}:  # both subdivision passes
                seg = X[first:first + rows, start:start + M * n]
                with np.errstate(all="ignore"):
                    got = scaling._block_ratios(seg, M, n)
                    want = reduction_block_ratios(seg, M, n)
                assert np.array_equal(got[0], want[0], equal_nan=True), (first, n, start)
                assert np.array_equal(got[1], want[1]), (first, n, start)

"""Block kernels: row i of a block estimate is the one-row estimate of row i,
bit for bit, and a failing row fails alone with the scalar path's error."""
import numpy as np
import pytest

from selfaffine import methods, scaling
from selfaffine.errors import (
    NonFiniteValue,
    NonPositiveTail,
    SelfAffineError,
    TooShort,
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
    fit = methods.estimate_blocks((method,), X)[method]
    errors = fit.errors
    for i, x in enumerate(X):
        got = type(errors[i]) if i in errors else float(fit.values[i])
        assert got == scalar_outcome(method, x), f"row {i}"
        if i not in errors:  # the record's value and line are the one-row estimate's bits
            r = ReturnsSeries(x)
            one = methods.estimate(method, r)
            assert one.value == methods.estimate_point(method, r)
            assert np.float64(one.intercept).tobytes() == fit.intercepts[i].tobytes(), f"row {i}"
            assert one.n_points == fit.n_points
    failing = ({CONSTANT_ROW} | ({NEGATIVE_ROW} if method in ("hill", "hr") else set())
               | ({OVERFLOW_ROW} if method in OVERFLOWS else set()))
    assert set(errors) == failing
    assert type(errors[CONSTANT_ROW]) is CONSTANT_ERROR[method]
    if method in OVERFLOWS:
        assert type(errors[OVERFLOW_ROW]) is NonFiniteValue
        with pytest.raises(NonFiniteValue):
            methods.estimate(method, ReturnsSeries(X[OVERFLOW_ROW]))


def described(errors):
    return {i: (type(exc), str(exc)) for i, exc in errors.items()}


@pytest.mark.parametrize("T", [100, 383, 2000])
@pytest.mark.parametrize("shared", [methods.FA_METHODS, methods.D_METHODS, methods.TAIL_METHODS,
                                    methods.METHODS], ids=["fa", "d", "tail", "all"])
def test_shared_pass_equals_one_pass_per_method(shared, T):
    """One kernel call for several methods gives each method its one-method
    fit: its values and intercepts bit for bit, its point count and each
    failed row's error. In the FA pass over the union of the q grids, a row
    whose large-q partition function underflows or overflows fails only the
    methods whose grid holds that q, and a row whose periodogram overflows
    just past GPH's band fails only Robinson."""
    z = np.random.default_rng(T + 1).standard_normal(T)
    j = int(T ** 0.5) + 1
    wave = 1e155 * np.cos(2.0 * np.pi * j * np.arange(T) / T)
    X = np.vstack([block(T), z * 1e-70, z * 1e70, z * 1e-300, wave])
    tiny, huge, tinier, past_gph = range(len(X) - 4, len(X))
    fits = methods.estimate_blocks(shared, X)
    assert list(fits) == list(shared)
    for method in shared:
        fit = methods.estimate_blocks((method,), X)[method]
        assert fits[method].values.tobytes() == fit.values.tobytes()
        assert fits[method].intercepts.tobytes() == fit.intercepts.tobytes()
        assert fits[method].n_points == fit.n_points
        assert described(fits[method].errors) == described(fit.errors)
        assert CONSTANT_ROW in fit.errors  # the error comparison is not vacuous
    if "gph" in shared:
        assert past_gph not in fits["gph"].errors
        assert described({0: fits["robinson"].errors[past_gph]}) == \
            {0: (NonFiniteValue, "periodogram ordinate overflows")}
    if "fa1" not in shared:
        return
    errors = {m: fits[m].errors for m in methods.FA_METHODS}
    assert [type(errors[m].get(tiny)) for m in methods.FA_METHODS] == \
        [type(None), type(None), ZeroPartition]
    assert [type(errors[m].get(huge)) for m in methods.FA_METHODS] == \
        [type(None), type(None), NonFiniteValue]
    assert [type(errors[m].get(tinier)) for m in methods.FA_METHODS] == \
        [type(None), ZeroPartition, ZeroPartition]
    assert np.isfinite(fits["fa1"].values[tinier])


def one_call_fa_points(X, q, scales):
    """ln S_q(T,n) with all of a scale's orders powered in one call: the
    kernel's bits, whatever slabs of orders it powers."""
    P = np.concatenate([np.zeros((len(X), 1)), np.cumsum(X, axis=1)], axis=1)
    lnS = np.empty((len(X), len(q), len(scales)))
    for j, n in enumerate(scales):
        v = scaling._block_increments(P, n)
        lnS[:, :, j] = np.log(0.5 * np.power(v[:, None, :], q[None, :, None]).sum(axis=2))
    return lnS


#: the FA grids and their 23-order union, whose prime order count splits into unequal slabs
FA_GRIDS = {**scaling.Q_GRIDS,
            "union": np.array(sorted({q for grid in scaling.Q_GRIDS.values() for q in grid}))}


def fast_path_row(T, q):
    """A row whose log-price path steps once, by x at observation 1, so that
    at every scale a pass's increments are x and zeros and S_q(T,n) is x^q or
    half of it, exactly. x is a value near 1 at which numpy's fast path for q
    (sqrt at 0.5, square at 2) differs from its general power loop, if it has
    one; ln S_q, near 0, then reads which of the two powered it."""
    x = np.linspace(1.0, 1.1, 1001)
    fast = np.sqrt(x) if q == 0.5 else np.square(x)
    row = np.zeros(T)
    row[0] = x[np.argmax(fast != np.power(x, np.full_like(x, q)))]
    return row


@pytest.mark.parametrize("rows", [1, 2, 64])
def test_power_fast_row_is_numpys_switch(rows):
    # numpy powers a slab of three orders through its sqrt fast path from rows
    # of POWER_FAST_ROW increments on and through its general loop below: the
    # FA kernel powers a repeated pass once only where M and 2M fall on one side
    x = fast_path_row(100, 0.5)[0]
    general = np.power(np.full(3, x), np.full(3, 0.5))[0]
    if general == np.sqrt(x):
        pytest.skip("numpy's sqrt and general power loop agree on every value tried")
    for length, want in ((scaling.POWER_FAST_ROW - 1, general),
                         (scaling.POWER_FAST_ROW, np.sqrt(x))):
        w = np.power(np.full((rows, 1, length), x), np.array([0.5, 1.0, 2.0])[None, :, None])
        assert (w[:, 0] == want).all(), length


def test_sum_twice_has_the_bits_of_numpys_sum_of_the_repeat():
    # the FA kernel sums a repeated pass's powers as numpy sums them repeated:
    # lengths on both sides of the 128-term block, seams on and off a multiple
    # of 8, and rows of zeros, of an infinity and of a NaN; a numpy that
    # changes its summation order fails here
    rng = np.random.default_rng(7)
    for m in [*range(1, 300), 625, 1000, 1875, 3001, 20000]:
        w = rng.random((2, 3, m)) ** 3 * 10.0 ** rng.integers(-8, 8, (2, 3, m))
        w[1, 0], w[1, 1, m // 2], w[1, 2, m // 3] = 0.0, np.inf, np.nan
        want = np.concatenate((w, w), axis=-1).sum(axis=-1)
        assert scaling._sum_twice(w).tobytes() == want.tobytes(), m


@pytest.mark.parametrize("T, rows", [
    *((T, rows) for T in (100, 379, 383, 2000, 5000, 7000) for rows in (1, 2, 64)),
    # n = 5 divides both: its M = 1,400 increments take numpy's general power
    # loop where the 2M of both passes take its fast paths, and M = 3,000 take
    # them as 2M do
    (15000, 1)])
def test_fa_points_equal_one_power_call_per_scale(T, rows, monkeypatch):
    # a zero row, rows at 1e+-200, and rows on which increments powered
    # through numpy's fast paths, or kept out of them, would read other bits
    X = np.vstack([block(T), block(T)[0] * 1e-200,
                   fast_path_row(T, 0.5), fast_path_row(T, 2.0)])
    X = np.resize(X, (max(rows, len(X)), T))  # its rows, cyclically
    scales = time_scale_grid(T)
    for first in range(0, len(X), rows):
        Y = X[first:first + rows]
        with np.errstate(all="ignore"):
            for q in FA_GRIDS.values():
                got, want = scaling._fa_points(Y, q, scales), one_call_fa_points(Y, q, scales)
                assert got.tobytes() == want.tobytes(), (first, q)
        got = methods.estimate_blocks(methods.FA_METHODS, Y)
        with monkeypatch.context() as patched:
            patched.setattr(scaling, "_fa_points", one_call_fa_points)
            want = methods.estimate_blocks(methods.FA_METHODS, Y)
        for method in methods.FA_METHODS:
            assert got[method][0].tobytes() == want[method][0].tobytes()
            assert described(got[method][1]) == described(want[method][1])


def test_a_whole_block_error_fails_every_row_of_every_method():
    shared = methods.estimate_blocks(("fa3", "hill", "fa1"), np.ones((2, 50)))
    assert list(shared) == ["fa3", "hill", "fa1"]
    for fit in shared.values():
        assert np.isnan(fit.values).all()
        assert sorted(fit.errors) == [0, 1]
        assert all(type(exc) is TooShort for exc in fit.errors.values())


def test_each_kernel_is_called_once_with_the_methods_it_serves(monkeypatch):
    calls = []

    def recording(X, served):
        calls.append(served)
        return [methods.BlockFit(np.full(len(X), float(len(m))), {}, np.full(len(X), np.nan), 0)
                for m in served]

    monkeypatch.setitem(methods._REGISTRY, "ab", recording)
    monkeypatch.setitem(methods._REGISTRY, "abc", recording)
    X = block(200)
    got = methods.estimate_blocks(("abc", "fa3", "hill", "ab", "fa1", "abc"), X)
    assert calls == [("abc", "ab")]
    assert list(got) == ["abc", "fa3", "hill", "ab", "fa1"]
    assert (got["abc"].values[0], got["ab"].values[0]) == (3.0, 2.0)
    assert methods.METHODS == ("rra", "fa1", "fa2", "fa3", "gph", "robinson", "pickands",
                               "hill", "hr")


def test_unknown_method():
    with pytest.raises(ValueError):
        methods.estimate_blocks(("dekkers",), np.zeros((1, 200)))


def reduction_block_ratios(seg, M, n):
    """The R/S block ratios and the blocks' dispersions S by reductions along
    each block. The reference for the kernel, whatever form it takes."""
    b = seg.reshape(len(seg), M, n)
    mu = b.mean(axis=2)
    dev = b - mu[:, :, None]
    S = np.sqrt((dev * dev).mean(axis=2))
    x = np.cumsum(dev, axis=2)
    x[:, :, -1] = 0.0
    R = x.max(axis=2) - x.min(axis=2)
    return R / S, S


def edge_rows(T):
    """Rows that reach the corners of float arithmetic: NaN, +-inf, runs of +-0
    and values near the bottom of the normal range."""
    rng = np.random.default_rng(T + 2)
    X = rng.standard_normal((6, T))
    X[0, ::7] = np.nan
    X[1, 3::11], X[1, 8::13] = np.inf, -np.inf
    X[2] = np.where(rng.random(T) < 0.5, -0.0, 0.0)
    X[3, : T // 2] = -0.0
    X[4] *= 1e-300
    X[5, ::3] = -0.0
    X[5] *= 1e-300
    return X


def same_floats(got, want):
    """Equal values, NaN matching NaN, and equal signs wherever not NaN."""
    return (np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got) & ~np.isnan(got),
                               np.signbit(want) & ~np.isnan(want)))


@pytest.mark.parametrize("rows", [1, 9, 64])
@pytest.mark.parametrize("T", [100, 383, 2000, 5000])
def test_block_ratios_equal_the_reduction_formula(T, rows):
    X = np.vstack([block(T), edge_rows(T)])
    X = np.resize(X, (max(rows, len(X)), T))  # its rows, cyclically
    for first in range(0, len(X), rows):
        for n in time_scale_grid(T):
            M = T // n
            for start in {0, T - M * n}:  # both subdivision passes
                seg = X[first:first + rows, start:start + M * n]
                with np.errstate(all="ignore"):
                    got = scaling._block_ratios(seg, M, n)
                    want = reduction_block_ratios(seg, M, n)
                assert same_floats(got[0], want[0]), (first, n, start)
                assert same_floats(got[1], want[1]), (first, n, start)


def sum_cases(n):
    """Rows of length n to sum: Gaussian, cancelling across 16 decades, random
    signed zeros, all -0.0, and a -0.0 run under one nonzero term."""
    rng = np.random.default_rng(n)
    a = rng.standard_normal((6, n))
    a[1] *= 10.0 ** rng.integers(-8, 8, n)
    a[1, 1::2] = -a[1, ::2][: n // 2] * (1 + 1e-12 * rng.standard_normal(n // 2))
    a[2] = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    a[3] = -0.0
    a[4] = -0.0
    a[4, n // 2] = 1e-300
    a[5] = np.cumsum(a[5]) - np.cumsum(a[5]).mean()  # deviations, as the kernel sums
    return a


def test_pairwise_sum_has_the_bits_of_numpy_sum():
    # the lengths cross the 8-term unroll, the 128-term block and the recursive
    # split; a numpy that changes its summation order fails here
    for n in range(1, 301):
        a = sum_cases(n)
        want = np.add.reduce(a, axis=-1).tobytes()
        assert scaling._pairwise_sum(np.ascontiguousarray(a.T), 0, n).tobytes() == want, n
        shifted = np.ascontiguousarray(np.hstack([np.ones((len(a), 3)), a]).T)  # terms 3..n+2
        assert scaling._pairwise_sum(shifted, 3, n + 3).tobytes() == want, n

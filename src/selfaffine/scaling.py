"""Rescaled range analysis and partition-function fluctuation analysis."""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteValue, TooShort, ZeroDispersion, ZeroPartition
from .timeseries import ReturnsSeries, _freeze

#: log-grid start, step, and the fraction of T capping the largest scale
GRID_LNMIN = 1.6
GRID_STEP = 0.15
GRID_CAP = 0.1
#: the shortest series every estimator takes
MIN_T = 100


def time_scale_grid(T: int) -> tuple[int, ...]:
    """Scale grid on ln(n) = 1.6, 1.75, ... up to the quantized cap ln(0.1*T).

    The cap is 0.15*int(ln(0.1*T)/0.15) with int rounding down; each grid
    point is rounded half-up to an integer and duplicates are dropped.
    """
    if T < MIN_T:
        raise TooShort(f"need T >= {MIN_T} for the time-scale grid")
    ln_max = GRID_STEP * math.floor(math.log(GRID_CAP * T) / GRID_STEP)
    scales: list[int] = []
    k = 0
    while GRID_LNMIN + GRID_STEP * k <= ln_max + 1e-9:
        scales.append(int(math.floor(math.exp(GRID_LNMIN + GRID_STEP * k) + 0.5)))
        k += 1
    return tuple(sorted(set(scales)))


class BlockFit(NamedTuple):
    """A block kernel's regression line of each row: estimates, the errors of
    the rows that fail, intercepts (NaN for the order-statistic methods, which
    fit no line) and the point count (their tail size)."""

    values: np.ndarray
    errors: dict
    intercepts: np.ndarray
    n_points: int


#: moment orders q of the partition-function estimators FA(1)-FA(3)
Q_GRIDS = {v: _freeze([round(step * k, 10) for k in range(1, 11)])
           for v, step in (("fa1", 0.1), ("fa2", 0.3), ("fa3", 0.5))}


def _pairwise_sum(A: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Sum of A[lo:hi] along axis 0 with the bits of np.add.reduce along a
    contiguous axis: its identity +0.0 plus numpy's pairwise sum of the
    hi - lo terms (`pairwise_sum` in numpy/_core/src/umath/loops_utils.h.src).

    Below 8 terms it adds in order; up to 128 terms in eight interleaved
    accumulators, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then adds
    the rest in order; above that it splits at a multiple of 8 near the middle.
    Every step is one vector op over whole planes A[k].
    """
    n = hi - lo
    if n < 8:
        s = A[lo] + 0.0  # the identity first: the sum of a run of -0.0 is +0.0
        for k in range(lo + 1, hi):
            s += A[k]
        return s
    if n <= 128:
        end = hi - n % 8
        r = A[lo : lo + 8]  # the eight accumulators
        if n >= 16:
            r = r + A[lo + 8 : lo + 16]
            for i in range(lo + 16, end, 8):
                r += A[i : i + 8]
        r = r[0::2] + r[1::2]  # r0+r1, r2+r3, r4+r5, r6+r7
        r = r[0::2] + r[1::2]  # (r0+r1)+(r2+r3), (r4+r5)+(r6+r7)
        s = r[0] + r[1]
        for k in range(end, hi):
            s += A[k]
        s += 0.0  # the identity last: it turns a sum of -0.0 into +0.0
        return s
    half = n // 2 - (n // 2) % 8
    return _pairwise_sum(A, lo, lo + half) + _pairwise_sum(A, lo + half, hi)


def _block_ratios(seg: np.ndarray, M: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """R_m/S_m and S_m over M contiguous blocks of one subdivision pass, per
    row of `seg`."""
    # the full-block cumulative deviation is analytically zero; pin it so the
    # range always includes that endpoint. The time-major form pays about a
    # numpy call per time step, the per-block form an eighth of one per block
    # and, in cumsum's fold, which waits on each add, a 512th of one per value
    if 8 * n <= len(seg) * M * (1 + n / 64):
        # many short blocks: reductions along each block would pay one inner
        # loop per block, so copy the pass into time-major order, (n, rows, M),
        # where every step below is one contiguous vector op over all blocks:
        # numpy's own summation order, and cumsum's left fold, so the same bits
        A = seg.reshape(len(seg), M, n).transpose(2, 0, 1).copy()
        A -= _pairwise_sum(A, 0, n) / n
        S = np.sqrt(_pairwise_sum(A * A, 0, n) / n)
        for prev, cur in zip(A[:-2], A[1:-1]):
            np.add(prev, cur, out=cur)
        A[-1] = 0.0
        hi, lo = A.max(axis=0), A.min(axis=0)
    else:
        # few long blocks: reductions along each block, the cumulative
        # deviations folded into the deviations' own array. The deviations and
        # their squares are one allocation, as the stable generator's work
        # blocks are: freeing two arrays of half its size would let glibc trim
        # its heap and fault them back in on the next pass
        b = seg.reshape(len(seg), M, n)
        dev, sq = np.empty((2, *b.shape))
        np.subtract(b, b.mean(axis=2)[:, :, None], out=dev)
        S = np.sqrt(np.square(dev, out=sq).mean(axis=2))
        np.cumsum(dev, axis=2, out=dev)
        dev[:, :, -1] = 0.0
        hi, lo = dev.max(axis=2), dev.min(axis=2)
    return (hi - lo) / S, S


def _rs_rows(X: np.ndarray, n: int) -> tuple[np.ndarray, dict]:
    """Two-pass average R/S at scale n for every row of X, and the error of
    each row with a constant block (S = 0, where the ratio is not finite) or,
    failing that, a block whose dispersion overflows (S = inf, where it reads 0)."""
    T = X.shape[1]
    M = T // n
    first, S = _block_ratios(X[:, : M * n], M, n)
    L = T - M * n
    second = first
    if L:
        second, S2 = _block_ratios(X[:, L : L + M * n], M, n)
        S = np.concatenate((S, S2), axis=1)
    errors = {}
    if not 0.0 < S.min() <= S.max() < np.inf:  # some S is 0, inf or NaN: type the rows
        errors = {int(i): NonFiniteValue(f"block dispersion overflows at scale {n}")
                  for i in np.flatnonzero(np.isinf(S).any(axis=1))}
        errors.update({int(i): ZeroDispersion(f"constant block at scale {n}")
                       for i in np.flatnonzero((S == 0.0).any(axis=1))})
    return (first.sum(axis=1) + second.sum(axis=1)) / (2 * M), errors


def rs_statistic(r: ReturnsSeries, n: int) -> float:
    """Average rescaled range over 2M blocks at time scale n.

    Blocks start at the first observation; when M*n < T a second pass starts
    at observation L+1 with L = T - n*M, otherwise the first pass is counted
    twice.
    """
    T = len(r)
    if not 2 <= n <= T:
        raise ValueError(f"scale n={n} out of range for T={T}")
    with np.errstate(all="ignore"):  # raised below as typed errors
        rs, errors = _rs_rows(r.values[None, :], n)
    if errors:
        raise errors[0]
    return float(rs[0])


def _ols_slopes(x: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """OLS slope and intercept of each row of Y on the regressor x."""
    xbar, ybar = x.mean(), Y.mean(axis=1, keepdims=True)
    xd = x - xbar
    slopes = np.sum(xd * (Y - ybar), axis=1) / np.sum(xd * xd)
    return slopes, ybar[:, 0] - slopes * xbar


def _rra_points(X: np.ndarray, scales: tuple[int, ...]) -> tuple[np.ndarray, dict]:
    """ln[(R/S)_n] over the scales for every row of X, and each failed row's error."""
    cols, errors = [], {}
    for n in scales:
        rs, failed = _rs_rows(X, n)
        errors = {**failed, **errors}  # a row fails at its first failing scale
        cols.append(rs)
    return np.log(np.stack(cols, axis=1)), errors


def rra_block(X: np.ndarray, methods: tuple[str, ...]) -> list[BlockFit]:
    """RRA Hurst exponent of every row of X, and each failed row's error: the
    OLS slope of ln[(R/S)_n] on ln(n) over the time-scale grid (`methods`: rra)."""
    scales = time_scale_grid(X.shape[1])
    Y, errors = _rra_points(X, scales)
    slopes, intercepts = _ols_slopes(np.log(scales), Y)
    return [BlockFit(slopes, errors, intercepts, len(scales))]


def _pass_increments(P: np.ndarray, start: int, n: int) -> np.ndarray:
    """|p_{mn} - p_{(m-1)n}| over the M blocks of the subdivision pass that
    starts at observation `start` (M values per row of P)."""
    M = (P.shape[1] - 1) // n
    return np.abs(np.diff(P[:, start : start + M * n + 1 : n], axis=1))


def _block_increments(P: np.ndarray, n: int) -> np.ndarray:
    """|p_{mn} - p_{(m-1)n}| over both subdivision passes (2M values per row of P)."""
    L = (P.shape[1] - 1) % n
    v1 = _pass_increments(P, 0, n)
    return np.concatenate([v1, _pass_increments(P, L, n) if L else v1], axis=1)


def partition_function(r: ReturnsSeries, n: int, q: float) -> float:
    """q-th order partition function at time scale n, half the sum of v_m^q
    over the log-price path p_0 = 0, p_t = r_1 + ... + r_t: the FA kernel's."""
    T = len(r)
    if not 2 <= n <= T:
        raise ValueError(f"scale n={n} out of range for T={T}")
    if q <= 0:
        raise ValueError("q must be positive")
    with np.errstate(all="ignore"):  # raised below as typed errors, as the FA kernel types them
        S = _fa_sums(r.values[None, :], np.array([float(q)]), (n,))
        errors = _partition_errors(np.log(S), (n,))
    if errors:
        raise errors[0]
    return float(S[0, 0, 0])


def _partition_errors(lnS: np.ndarray, scales: tuple[int, ...]) -> dict:
    """Each row whose partition function is zero or not finite somewhere on
    the (q, n) grid of lnS, failed at the first such scale: a row with a zero
    one (S >= 0, so S == 0 is ln S == -inf) as ZeroPartition, any other as
    NonFiniteValue. `partition_function` fails its one sum by it too."""
    bad = ~np.all(np.isfinite(lnS), axis=1)
    errors = {}
    for i in np.flatnonzero(bad.any(axis=1)):
        zero = np.any(lnS[i] == -np.inf, axis=0)
        n = scales[int(np.argmax(zero if zero.any() else bad[i]))]
        errors[int(i)] = (ZeroPartition(f"zero partition function at scale {n}") if zero.any()
                          else NonFiniteValue(f"partition function is not finite at scale {n}"))
    return errors


#: the shortest row of increments that numpy powers through its sqrt and
#: square fast paths for q = 0.5 and 2 when a call holds three or more orders
#: (measured on numpy 2.4.6); a shorter row takes its general power loop,
#: whose bits differ
POWER_FAST_ROW = 2731
#: the FA kernel's bound on a slab of powers, in values (128 KiB), for a
#: block of fewer values: a slab holds at most as many values as the block or
#: as this, so a short block powers its orders in one call per scale
FA_SLAB_VALUES = 2**14


def _sum_twice(w: np.ndarray, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Sum over the last axis of w concatenated with itself (of its terms lo
    to hi; all 2m by default), with the bits of numpy's sum of the
    concatenation, without building it.

    numpy's pairwise sum (see `_pairwise_sum`) splits a run of more than 128
    terms at a multiple of 8 near its middle: a part within one copy of w is
    summed by numpy itself, the part that straddles the seam is split the
    same way, and a straddling run of at most 128 terms is copied and summed.
    The terms are powers, so no sum is -0.0 and numpy's +0.0 identity, added
    to each part, changes none.
    """
    m = w.shape[-1]
    hi = 2 * m if hi is None else hi
    if hi <= m or lo >= m:
        start = lo % m
        return w[..., start : start + hi - lo].sum(axis=-1)
    if hi - lo <= 128:
        return np.concatenate((w[..., lo:], w[..., : hi - m]), axis=-1).sum(axis=-1)
    half = (hi - lo) // 2 - (hi - lo) // 2 % 8
    return _sum_twice(w, lo, lo + half) + _sum_twice(w, lo + half, hi)


def _fa_sums(X: np.ndarray, q: np.ndarray, scales: tuple[int, ...]) -> np.ndarray:
    """S_q(T,n), half the sum of the powered increments, over the (q, n) grid
    for every row of X, shape (rows, q, n).

    A scale's increments are powered one slab of consecutive orders at a
    time: the orders are split into as few near-equal slabs as hold at most
    T // 2M orders each, so a slab holds about as many values as X; where X
    holds fewer than FA_SLAB_VALUES values, FA_SLAB_VALUES // rows // 2M.
    A slab holds at least three orders (fewer, larger slabs where that bound
    is two): numpy powers q = 0.5 and 2 through its sqrt and square fast
    paths, whose bits differ from its general loop, for an exponent of one
    order, or of two on a one-row block, that it broadcasts over two or more
    increments, while from three orders on it chooses as for the whole grid.

    Where n divides T the second pass is the first, so the M increments of
    one pass are powered once and summed as if repeated (`_sum_twice`): the
    sum, and so S_q, is the one of the 2M increments. The rows then stay M
    long, not 2M, so where numpy's fast-path choice falls between the two
    (M < POWER_FAST_ROW <= 2M) both passes are powered.
    """
    T = X.shape[1]
    P = np.concatenate([np.zeros((len(X), 1)), np.cumsum(X, axis=1)], axis=1)
    S = np.empty((len(X), len(q), len(scales)))
    slab_row = max(T, FA_SLAB_VALUES // max(len(X), 1))  # a slab's bound, in values per row
    for j, n in enumerate(scales):
        M = T // n
        once = T % n == 0 and not M < POWER_FAST_ROW <= 2 * M
        v = (_pass_increments(P, 0, n) if once else _block_increments(P, n))[:, None, :]
        width = max(3, slab_row // (2 * M))
        slabs = min(-(-len(q) // width), max(1, len(q) // 3))
        for i in range(slabs):
            lo, hi = i * len(q) // slabs, (i + 1) * len(q) // slabs
            w = np.power(v, q[None, lo:hi, None])
            S[:, lo:hi, j] = _sum_twice(w) if once else w.sum(axis=2)
            del w  # so the next slab is powered into the memory this one held
    return np.multiply(S, 0.5, out=S)


def _fa_points(X: np.ndarray, q: np.ndarray, scales: tuple[int, ...]) -> np.ndarray:
    """ln S_q(T,n), shape (rows, q, n): the log of `_fa_sums`, taken in place."""
    S = _fa_sums(X, q, scales)
    return np.log(S, out=S)


def _fa_slopes(lnS: np.ndarray, q: np.ndarray, lnn: np.ndarray) -> np.ndarray:
    """Within-q demeaned OLS slope of (ln S_q + ln n) on q*ln n, per row."""
    X = q[:, None] * lnn[None, :]
    Xd = X - X.mean(axis=1, keepdims=True)
    Y = lnS + lnn
    Yd = Y - Y.mean(axis=2, keepdims=True)
    return np.sum(Xd * Yd, axis=(1, 2)) / np.sum(Xd * Xd)


def fa_block(X: np.ndarray, methods: tuple[str, ...]) -> list[BlockFit]:
    """Fluctuation-analysis Hurst exponent of every row of X on the q grid of
    each of `methods` (FA(1)-FA(3)), and each failed row's error.

    Stacks ln S_q(T,n) over the (q, n) grid and fits per-q intercepts a(q)
    with one slope parameter through slope(q) = -1 + H*q, solved in closed
    form by within-q demeaned OLS of (ln S_q + ln n) on q*ln n. A grid's line
    is that of its smallest order q_1: intercept a(q_1), over all of the
    grid's points. ln S_q is computed once, over the union of the grids; a
    grid's estimates, lines and failures come from its own orders alone.
    """
    scales = time_scale_grid(X.shape[1])
    grids = [Q_GRIDS[m] for m in methods]
    # not np.unique: its first call imports numpy.ma, megabytes of resident memory
    union = np.array(sorted({q for grid in grids for q in grid}))
    lnS = _fa_points(X, union, scales)
    lnn, out = np.log(scales), []
    for q in grids:
        # a contiguous copy: _fa_slopes on the strided selection differs in the
        # last bit
        part = np.ascontiguousarray(lnS[:, np.searchsorted(union, q)])
        H = _fa_slopes(part, q, lnn)
        out.append(BlockFit(H, _partition_errors(part, scales),
                            part[:, 0].mean(axis=1) - (H * q[0] - 1.0) * lnn.mean(),
                            len(q) * len(scales)))
    return out

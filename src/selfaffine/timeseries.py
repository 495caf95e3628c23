"""Core series types, return construction, diagnostics and AR filtering."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateSeries,
    NonFiniteValue,
    NonPositivePrice,
    OrderTooLarge,
    SingularDesign,
    TooShort,
)
from .rng import rng_from_seed


def _freeze(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float).copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PriceSeries:
    """Closing prices."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        if self.values.ndim != 1 or len(self.values) < 2:
            raise TooShort("need at least two prices")
        if not np.all(np.isfinite(self.values)) or np.any(self.values <= 0.0):
            raise NonPositivePrice("prices must be finite and strictly positive")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ReturnsSeries:
    """Natural-log returns; the universal estimator input."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        if self.values.ndim != 1 or len(self.values) < 1:
            raise TooShort("returns series is empty")
        if not np.all(np.isfinite(self.values)):
            raise NonFiniteValue("returns must be finite")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    sd: float
    skewness: float
    kurtosis: float  # raw (non-excess), Gaussian reference = 3


@dataclass(frozen=True)
class ARModel:
    """Fitted autoregression z_t = intercept + sum(phi_i z_{t-i}) + e_t."""

    order: int
    intercept: float
    coefficients: np.ndarray
    residual_sd: float

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _freeze(self.coefficients))
        if len(self.coefficients) != self.order:
            raise ValueError("coefficient count must equal order")
        if not self.residual_sd > 0:
            raise ValueError("residual_sd must be positive")


def log_returns(prices: PriceSeries) -> ReturnsSeries:
    """Natural-log returns from a price series."""
    return ReturnsSeries(np.diff(np.log(prices.values)))


def summary_stats(r: ReturnsSeries) -> SummaryStats:
    """Mean, sd and standardized third/fourth moments, all with divisor T."""
    z = r.values
    if len(z) < 4:
        raise TooShort("need at least four observations for moment estimates")
    mean = float(z.mean())
    dev = z - mean
    m2 = float((dev * dev).mean())
    # a constant series whose mean rounds off its value leaves equal non-zero
    # deviations, and a subnormal m2 has lost its precision: both are degenerate
    if m2 < np.finfo(float).tiny or z.min() == z.max():
        raise DegenerateSeries("zero variance: skewness/kurtosis undefined")
    sd = math.sqrt(m2)
    # standardize first: |dev/sd| <= sqrt(T) with divisor-T moments, so the
    # third/fourth powers can neither overflow nor underflow to zero
    s = dev / sd
    return SummaryStats(mean=mean, sd=sd, skewness=float((s ** 3).mean()),
                        kurtosis=float((s ** 4).mean()))


def _ranks(x: np.ndarray) -> np.ndarray:
    """The ascending rank (1..len(x)) of each value of x, ties broken by index."""
    ranks = np.empty(len(x), dtype=np.int64)
    ranks[np.argsort(x, kind="stable")] = np.arange(1, len(x) + 1)
    return ranks


def random_reorder(r: ReturnsSeries, seed: int) -> ReturnsSeries:
    """Random re-ordering built from the ranks of T uniform draws.

    Draw xi_t ~ U(0,1), let rank(t) be the rank of xi_t (ties broken by index),
    and map output[t] = input[rank(t) - 1]. This is a uniform random
    permutation: it preserves the value multiset while destroying dependence.
    """
    z = r.values
    return ReturnsSeries(z[_ranks(rng_from_seed(seed).uniform(0.0, 1.0, len(z))) - 1])


# Cephes ndtri's rational approximations (Moshier 1989, "Methods and Programs
# for Mathematical Functions"), highest power first
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
             -5.66762857469070293439e1, 1.39312609387279679503e1,
             -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2,
             2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
             5.71628192246421288162e1, 4.40805073893200834700e1,
             1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1,
             2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    # Horner in Cephes' order; a leading 1 gives p1evl's bits, since 1*x is x
    ans = np.full_like(x, coef[0])
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile, bit for bit as `scipy.special.ndtri`.

    Domain: exp(-32) < p < 1 - exp(-32) (exp(-32) is about 1.27e-14), which
    holds every rank quantile k/(T+1) of a series that fits in memory;
    Cephes' third fit, for the tails beyond, is left out. The tail's two logs
    come from libm (`math.log`), as in Cephes: numpy's vectorised log can
    differ from it in the last bit.
    """
    out = np.empty_like(p)
    upper = p > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - p, p)
    central = y > _EXP_M2
    yc = y[central] - 0.5
    y2 = yc * yc
    out[central] = (yc + yc * (y2 * _polevl(y2, _NDTRI_P0)
                                / _polevl(y2, _NDTRI_Q0))) * _SQRT_2PI
    tail = ~central
    x = np.sqrt(np.array([-2.0 * math.log(v) for v in y[tail]]))
    x0 = x - np.array([math.log(v) for v in x]) / x
    z = 1.0 / x
    x = x0 - z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1)
    out[tail] = np.where(upper[tail], x, -x)
    return out


def normalize_transform(r: ReturnsSeries) -> ReturnsSeries:
    """Map each value to the standard normal quantile of its rank.

    Output[t] = ndtri(rank(t) / (T+1)) with ascending ranks and ties broken by
    original index, so the rank ordering of the output equals the input's.
    """
    return ReturnsSeries(_ndtri(_ranks(r.values) / (len(r) + 1.0)))


def _ar_design(z: np.ndarray, p: int, max_lag: int) -> tuple[np.ndarray, np.ndarray]:
    # common estimation sample t = max_lag..T-1 regardless of candidate order
    y = z[max_lag:]
    cols = [np.ones(len(y))]
    for i in range(1, p + 1):
        cols.append(z[max_lag - i : len(z) - i])
    return np.column_stack(cols), y


def fit_ar(r: ReturnsSeries, max_lag: int = 10, criterion: str = "aic") -> ARModel:
    """Least-squares AR fit with order selected on a common sample.

    Candidate orders 0..max_lag are all estimated on observations
    t = max_lag+1..T so their information criteria are comparable; the
    criterion is the Gaussian form n*ln(SSE/n) + penalty*(p+1).
    """
    if criterion not in ("aic", "bic"):
        raise ValueError(f"unknown criterion {criterion!r}")
    if max_lag < 0:
        raise ValueError("max_lag must be non-negative")
    z = r.values
    if len(z) <= 10 * max_lag or len(z) <= max_lag + 1:
        raise TooShort(f"T={len(z)} is too short for max_lag {max_lag}: the AR fit "
                       "needs T > 10*max_lag (and T > max_lag + 1)")

    n_eff = len(z) - max_lag
    penalty = 2.0 if criterion == "aic" else math.log(n_eff)
    best = None
    for p in range(max_lag + 1):
        X, y = _ar_design(z, p, max_lag)
        coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
        if rank < p + 1:
            raise SingularDesign(f"rank-deficient design at order {p}")
        resid = y - X @ coef
        sse = float(resid @ resid)
        if sse <= 0.0:
            raise DegenerateSeries("perfect AR fit: zero residual variance")
        ic = n_eff * math.log(sse / n_eff) + penalty * (p + 1)
        if best is None or ic < best[0]:
            best = (ic, p, coef, sse)

    _, p, coef, sse = best
    return ARModel(
        order=p,
        intercept=float(coef[0]),
        coefficients=coef[1:],
        residual_sd=math.sqrt(sse / n_eff),
    )


def ar_filter(r: ReturnsSeries, model: ARModel) -> ReturnsSeries:
    """Residuals e_t = z_t - intercept - sum(phi_i z_{t-i}), t > order."""
    z = r.values
    p = model.order
    if p >= len(z):
        raise OrderTooLarge("AR order must be smaller than the series length")
    e = z[p:] - model.intercept
    for i, phi in enumerate(model.coefficients, start=1):
        e = e - phi * z[p - i : len(z) - i]
    return ReturnsSeries(e)


# --- CSV interfaces -----------------------------------------------------------

def read_prices_csv(path: str | Path) -> PriceSeries:
    """Read a `date,close` CSV (header required, chronological rows); the
    dates are not read."""
    closes: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header[:2]] != ["date", "close"]:
            raise ValueError(f"{path}: expected header 'date,close'")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise ValueError(f"{path}:{lineno}: expected two columns")
            try:
                close = float(row[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric close {row[1]!r}") from None
            if not math.isfinite(close) or close <= 0.0:
                raise NonPositivePrice(f"{path}:{lineno}: close must be positive")
            closes.append(close)
    if len(closes) < 2:
        raise TooShort(f"{path}: need at least two price rows")
    return PriceSeries(np.asarray(closes))


def read_values_csv(path: str | Path) -> ReturnsSeries:
    """Read a single-column `value` CSV into a returns series."""
    vals: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0].strip().lower() != "value":
            raise ValueError(f"{path}: expected header 'value'")
        for lineno, row in enumerate(reader, start=2):
            if not row or not row[0].strip():
                continue
            try:
                vals.append(float(row[0]))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric value {row[0]!r}") from None
    if not vals:
        raise TooShort(f"{path}: no values")
    return ReturnsSeries(np.asarray(vals))


def write_values_csv(path: str | Path, values: Sequence[float]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value"])
        for v in values:
            writer.writerow([repr(float(v))])

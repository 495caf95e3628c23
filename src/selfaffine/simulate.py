"""Seedable generators for the Monte Carlo study.

Models: NIID Gaussian, ARFIMA(0,d,0) via its truncated moving-average
representation, Levy-stable via Chambers-Mallows-Stuck, Student-t, and
recursive AR series with a fitted short-range structure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve, lfilter

from .errors import (
    BadAlpha,
    BadBeta,
    BadD,
    BadDF,
    BadSigma,
    ExplosiveModel,
)
from .rng import rng_from_seed
from .timeseries import ARModel, ReturnsSeries, _freeze

NIID = "niid"
ARFIMA = "arfima"
LSTABLE = "lstable"
STUDENT_T = "student_t"
AR_RECURSIVE = "ar_recursive"

MODELS = (NIID, ARFIMA, LSTABLE, STUDENT_T, AR_RECURSIVE)

#: moving-average truncation lag for the ARFIMA generator
DEFAULT_TRUNCATION = 4999
#: discarded start-up observations for the recursive AR generator
DEFAULT_BURN_IN = 1000


@dataclass(frozen=True)
class SimulationSpec:
    """Model tag plus parameters for one simulated returns series."""

    model: str
    T: int
    seed: int = 0
    d: float = 0.0
    alpha: float = 2.0
    beta: float = 0.0
    mu: float = 0.0
    sigma: float = 1.0
    df: int = 10
    ar: ARModel | None = None
    burn_in: int = DEFAULT_BURN_IN
    truncation: int = DEFAULT_TRUNCATION

    def __post_init__(self):
        # one spelling per value: lstable_spec(2, ...) and lstable_spec(2.0, ...)
        # are the same null model and share one critical-value cache file
        for name in ("d", "alpha", "beta", "mu", "sigma"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.T < 1:
            raise ValueError("T must be at least 1")
        if self.model == ARFIMA and not abs(self.d) < 0.5:
            raise BadD(f"|d| must be below 0.5, got {self.d}")
        if self.model == LSTABLE:
            if not 0.0 < self.alpha <= 2.0:
                raise BadAlpha(f"alpha must lie in (0, 2], got {self.alpha}")
            if not abs(self.beta) <= 1.0:
                raise BadBeta(f"|beta| must be at most 1, got {self.beta}")
            if not self.sigma > 0.0:
                raise BadSigma(f"sigma must be positive, got {self.sigma}")
        if self.model == STUDENT_T and self.df < 1:
            raise BadDF(f"df must be at least 1, got {self.df}")
        if self.model == AR_RECURSIVE:
            if self.ar is None:
                raise ValueError("ar_recursive needs a fitted ARModel")
            if self.burn_in < 1000:
                raise ValueError("burn_in must be at least 1000")
            _check_stationary(self.ar)


def niid_spec(T: int, seed: int = 0) -> SimulationSpec:
    return SimulationSpec(model=NIID, T=T, seed=seed)


def arfima_spec(d: float, T: int, seed: int = 0,
                truncation: int = DEFAULT_TRUNCATION) -> SimulationSpec:
    return SimulationSpec(model=ARFIMA, T=T, seed=seed, d=d, truncation=truncation)


def lstable_spec(alpha: float, T: int, seed: int = 0, beta: float = 0.0,
                 mu: float = 0.0, sigma: float = 1.0) -> SimulationSpec:
    return SimulationSpec(model=LSTABLE, T=T, seed=seed, alpha=alpha, beta=beta,
                          mu=mu, sigma=sigma)


def lstable_spec_for_hurst(H: float, T: int, seed: int = 0) -> SimulationSpec:
    """Symmetric stable spec with alpha = 1/H exactly (H in [0.5, 1))."""
    if not 0.5 <= H < 1.0:
        raise BadAlpha(f"target H must lie in [0.5, 1), got {H}")
    return lstable_spec(alpha=1.0 / H, T=T, seed=seed)


def student_t_spec(df: int, T: int, seed: int = 0) -> SimulationSpec:
    return SimulationSpec(model=STUDENT_T, T=T, seed=seed, df=df)


def ar_recursive_spec(ar: ARModel, T: int, seed: int = 0,
                      burn_in: int = DEFAULT_BURN_IN) -> SimulationSpec:
    return SimulationSpec(model=AR_RECURSIVE, T=T, seed=seed, ar=ar, burn_in=burn_in)


@dataclass(frozen=True)
class MAWeights:
    """Moving-average weights of (1-L)^(-d): gamma_j = gamma_{j-1} (d+j-1)/j."""

    d: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))


def arfima_weights(d: float, J: int) -> MAWeights:
    """Weights gamma_0..gamma_J of the fractional-integration MA expansion."""
    if not abs(d) < 0.5:
        raise BadD(f"|d| must be below 0.5, got {d}")
    if J < 0:
        raise ValueError("J must be non-negative")
    if J == 0:
        return MAWeights(d, np.ones(1))
    j = np.arange(1, J + 1, dtype=float)
    return MAWeights(d, np.concatenate([[1.0], np.cumprod((d + j - 1.0) / j)]))


def gen_arfima(spec: SimulationSpec, convolution: str = "fft") -> ReturnsSeries:
    """ARFIMA(0,d,0) series: truncated MA filter applied to N(0,1) innovations.

    Innovations for times 1..T are drawn first and the pre-sample history
    after them, so d=0 reproduces the NIID generator draw-for-draw on the
    same seed. `convolution` picks the fast transform path ("fft") or the
    direct O(J*T) sum ("direct"), which serves as the oracle for the former.
    """
    if spec.model != ARFIMA:
        raise ValueError("spec.model must be 'arfima'")
    rng = rng_from_seed(spec.seed)
    T, J = spec.T, spec.truncation
    sample = rng.standard_normal(T)            # u_1..u_T
    if spec.d == 0.0:
        return ReturnsSeries(sample)
    history = rng.standard_normal(J + 1)[::-1]  # u_{-J}..u_0, drawn newest-last
    u = np.concatenate([history, sample])       # time order u_{-J}..u_T
    g = arfima_weights(spec.d, J).values
    if convolution == "fft":
        y = fftconvolve(u, g)[J + 1 : J + 1 + T]
    elif convolution == "direct":
        y = np.convolve(u, g)[J + 1 : J + 1 + T]
    else:
        raise ValueError(f"unknown convolution {convolution!r}")
    return ReturnsSeries(y)


#: below this distance from 1, alpha is routed to the alpha=1 branch
ALPHA_ONE_BAND = 1e-6


def gen_lstable(spec: SimulationSpec) -> ReturnsSeries:
    """Levy-stable draws via the Chambers-Mallows-Stuck transformation.

    V ~ U(-pi/2, pi/2) and W ~ exp(1) feed the alpha != 1 and alpha = 1
    branches; the output is rescaled by (sigma, mu).
    """
    if spec.model != LSTABLE:
        raise ValueError("spec.model must be 'lstable'")
    rng = rng_from_seed(spec.seed)
    alpha, beta, mu, sigma = spec.alpha, spec.beta, spec.mu, spec.sigma
    V = rng.uniform(-math.pi / 2, math.pi / 2, spec.T)
    W = rng.standard_exponential(spec.T)
    if abs(alpha - 1.0) < ALPHA_ONE_BAND:
        half_pi = math.pi / 2
        X = (1.0 / half_pi) * ((half_pi + beta * V) * np.tan(V)
                               - beta * np.log((W * np.cos(V)) / (half_pi + beta * V)))
        Y = sigma * X + (1.0 / half_pi) * beta * sigma * math.log(sigma) + mu
    else:
        ta = math.tan(math.pi * alpha / 2.0)
        B = math.atan(beta * ta) / alpha
        S = (1.0 + beta * beta * ta * ta) ** (1.0 / (2.0 * alpha))
        X = (S * np.sin(alpha * (V + B)) / np.cos(V) ** (1.0 / alpha)
             * (np.cos(V - alpha * (V + B)) / W) ** ((1.0 - alpha) / alpha))
        Y = sigma * X + mu
    return ReturnsSeries(Y)


def gen_iid(spec: SimulationSpec) -> ReturnsSeries:
    """Independent standard-normal or Student-t draws."""
    rng = rng_from_seed(spec.seed)
    if spec.model == NIID:
        return ReturnsSeries(rng.standard_normal(spec.T))
    if spec.model == STUDENT_T:
        return ReturnsSeries(rng.standard_t(spec.df, spec.T))
    raise ValueError("spec.model must be 'niid' or 'student_t'")


def _check_stationary(model: ARModel) -> None:
    p = model.order
    if p == 0:
        return
    companion = np.zeros((p, p))
    companion[0, :] = model.coefficients
    if p > 1:
        companion[1:, :-1] = np.eye(p - 1)
    radius = float(np.max(np.abs(np.linalg.eigvals(companion))))
    # characteristic root modulus 1/radius <= 1 + 1e-8 means explosive/unit root
    if radius >= 1.0 / (1.0 + 1e-8):
        raise ExplosiveModel(f"AR root modulus {1.0 / radius:.6g} within the unit band")


def gen_ar_recursive(spec: SimulationSpec) -> ReturnsSeries:
    """AR(p) recursion with Gaussian innovations; burn-in is discarded."""
    if spec.model != AR_RECURSIVE:
        raise ValueError("spec.model must be 'ar_recursive'")
    model = spec.ar
    rng = rng_from_seed(spec.seed)
    u = rng.standard_normal(spec.burn_in + spec.T)
    if model.order == 0:
        z = model.intercept + model.residual_sd * u
    else:
        # z_t = (c + sd*u_t) + sum(phi_i z_{t-i}) is an IIR filter from zero state
        a = np.concatenate([[1.0], -model.coefficients])
        z = lfilter([1.0], a, model.intercept + model.residual_sd * u)
    return ReturnsSeries(z[spec.burn_in :])


def generate(spec: SimulationSpec) -> ReturnsSeries:
    """Dispatch a spec to its generator; bit-identical for identical specs."""
    if spec.model == ARFIMA:
        return gen_arfima(spec)
    if spec.model == LSTABLE:
        return gen_lstable(spec)
    if spec.model in (NIID, STUDENT_T):
        return gen_iid(spec)
    if spec.model == AR_RECURSIVE:
        return gen_ar_recursive(spec)
    raise ValueError(f"unknown model {spec.model!r}")


def arfima_acf(d: float, max_lag: int) -> np.ndarray:
    """Theoretical ARFIMA(0,d,0) autocorrelations rho_1..rho_max_lag."""
    j = np.arange(1, max_lag + 1, dtype=float)
    return np.cumprod((d + j - 1.0) / (j - d))

"""Seedable generators for the Monte Carlo study.

Models: NIID Gaussian, ARFIMA(0,d,0) via its truncated moving-average
representation, Levy-stable via Chambers-Mallows-Stuck, Student-t, and
recursive AR series with a fitted short-range structure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadAlpha,
    BadBeta,
    BadD,
    BadDF,
    BadSigma,
    ExplosiveModel,
    NonFiniteValue,
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


def arfima_weights(d: float, J: int) -> np.ndarray:
    """Read-only weights gamma_0..gamma_J of the fractional-integration MA
    expansion of (1-L)^(-d): gamma_0 = 1, gamma_j = gamma_{j-1} (d+j-1)/j."""
    if not abs(d) < 0.5:
        raise BadD(f"|d| must be below 0.5, got {d}")
    if J < 0:
        raise ValueError("J must be non-negative")
    j = np.arange(1, J + 1, dtype=float)
    return _freeze(np.concatenate([[1.0], np.cumprod((d + j - 1.0) / j)]))


#: below this distance from 1, alpha is routed to the alpha=1 branch
ALPHA_ONE_BAND = 1e-6


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


def _fast_len(n: int) -> int:
    """Smallest 2*3*5-smooth integer >= n, as `scipy.fft.next_fast_len(n, True)`:
    the convolution length the ARFIMA series are pinned to, since another
    length changes their low-order bits."""
    odd = (3 ** i * 5 ** j for i in range(n.bit_length()) for j in range(n.bit_length()))
    return min(c << (-(-n // c) - 1).bit_length() for c in odd)  # c * 2**k >= n


def _arfima(spec: SimulationSpec, rngs) -> np.ndarray:
    # innovations for times 1..T come first and the pre-sample history after
    # them, so d=0 reproduces the NIID generator draw-for-draw on the same seed
    T, J = spec.T, spec.truncation
    if spec.d == 0.0:
        return np.array([rng.standard_normal(T) for rng in rngs])
    U = np.empty((len(rngs), J + 1 + T))  # time order u_{-J}..u_T
    for row, rng in zip(U, rngs):
        row[J + 1:] = rng.standard_normal(T)  # u_1..u_T
        row[:J + 1] = rng.standard_normal(J + 1)[::-1]  # u_{-J}..u_0, drawn newest-last
    # the truncated MA filter as a full linear convolution by real FFT
    L = _fast_len(U.shape[1] + J)
    F = np.fft.rfft(U, L, axis=1)
    F *= np.fft.rfft(arfima_weights(spec.d, J), L)
    return np.fft.irfft(F, L, axis=1)[:, J + 1:J + 1 + T]


def _lstable(spec: SimulationSpec, rngs) -> np.ndarray:
    # Chambers-Mallows-Stuck: V ~ U(-pi/2, pi/2) and W ~ exp(1) feed the
    # alpha != 1 and alpha = 1 branches; the output is rescaled by (sigma, mu)
    alpha, beta, mu, sigma = spec.alpha, spec.beta, spec.mu, spec.sigma
    V, W = np.empty((2, len(rngs), spec.T))
    for i, rng in enumerate(rngs):
        V[i] = rng.uniform(-math.pi / 2, math.pi / 2, spec.T)
        W[i] = rng.standard_exponential(spec.T)
    if abs(alpha - 1.0) < ALPHA_ONE_BAND:
        half_pi = math.pi / 2
        X = (1.0 / half_pi) * ((half_pi + beta * V) * np.tan(V)
                               - beta * np.log((W * np.cos(V)) / (half_pi + beta * V)))
        return sigma * X + (1.0 / half_pi) * beta * sigma * math.log(sigma) + mu
    ta = math.tan(math.pi * alpha / 2.0)
    B = math.atan(beta * ta) / alpha
    S = (1.0 + beta * beta * ta * ta) ** (1.0 / (2.0 * alpha))
    X = (S * np.sin(alpha * (V + B)) / np.cos(V) ** (1.0 / alpha)
         * (np.cos(V - alpha * (V + B)) / W) ** ((1.0 - alpha) / alpha))
    return sigma * X + mu


def _ar_recursive(spec: SimulationSpec, rngs) -> np.ndarray:
    # AR(p) recursion with Gaussian innovations; the burn-in is discarded
    model = spec.ar
    Z = model.intercept + model.residual_sd * np.array(
        [rng.standard_normal(spec.burn_in + spec.T) for rng in rngs])
    if model.order > 0:
        from scipy.signal import lfilter

        # z_t = (c + sd*u_t) + sum(phi_i z_{t-i}) is an IIR filter from zero state
        Z = lfilter([1.0], np.concatenate([[1.0], -model.coefficients]), Z, axis=1)
    return Z[:, spec.burn_in:]


_GENERATORS = {
    NIID: lambda spec, rngs: np.array([rng.standard_normal(spec.T) for rng in rngs]),
    STUDENT_T: lambda spec, rngs: np.array([rng.standard_t(spec.df, spec.T) for rng in rngs]),
    ARFIMA: _arfima,
    LSTABLE: _lstable,
    AR_RECURSIVE: _ar_recursive,
}


def generate_block(spec: SimulationSpec, seeds) -> tuple[np.ndarray, dict[int, NonFiniteValue]]:
    """One series of `spec` per seed, as the rows of a `(len(seeds), T)` array.

    Row i draws from `rng_from_seed(seeds[i])`, and the model's transform runs
    once on the whole block, so row i is bit-identical to `generate` on that
    seed. A row that is not finite fails alone: it is listed in the returned
    {row: error} map, and its values are meaningless.
    """
    with np.errstate(all="ignore"):
        X = _GENERATORS[spec.model](spec, [rng_from_seed(s) for s in seeds])
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    return X, {int(i): NonFiniteValue("returns must be finite") for i in bad}


def generate(spec: SimulationSpec) -> ReturnsSeries:
    """The series of `spec` at `spec.seed`: the one-row case of `generate_block`."""
    X, errors = generate_block(spec, (spec.seed,))
    if errors:
        raise errors[0]
    return ReturnsSeries(X[0])


def arfima_acf(d: float, max_lag: int) -> np.ndarray:
    """Theoretical ARFIMA(0,d,0) autocorrelations rho_1..rho_max_lag."""
    j = np.arange(1, max_lag + 1, dtype=float)
    return np.cumprod((d + j - 1.0) / (j - d))

"""Seedable generators for the Monte Carlo study.

Models: NIID Gaussian, ARFIMA(0,d,0) via its truncated moving-average
representation, Levy-stable via Chambers-Mallows-Stuck, Student-t, and
recursive AR series with a fitted short-range structure; one spec class each.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar

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
from .rng import as_int, generators
from .timeseries import ARModel, ReturnsSeries, _freeze

#: below this distance from 1, alpha is routed to the alpha=1 branch
ALPHA_ONE_BAND = 1e-6
#: rows per real FFT of the ARFIMA generator, which bound its FFT buffers
ARFIMA_ROWS = 8
#: time steps per pass of the AR recursion, which bound its work buffer
AR_STEPS = 64
#: innovations drawn per row and call of the AR generator, a multiple of
#: AR_STEPS, which bound its innovation buffer
AR_DRAWS = 512


class SimulationSpec:
    """A simulated returns series: a frozen dataclass of its length `T`, `seed`
    and its model's own parameters, checked when built. `_fill(rngs, out)`
    fills a C-ordered `(rows, T)` block in place, row i from `rngs[i]`."""

    model: ClassVar[str]  # the model's tag, its key in `MODELS`
    chunk_rows: ClassVar[int | None] = None  # the most rows generated together; None: one block

    def __post_init__(self):
        # one spelling per value: lstable_spec(2, ...) and lstable_spec(2.0, ...)
        # are the same null model and share one critical-value cache file
        for f in fields(self):
            if f.type in (float, "float"):  # the string where annotations are postponed
                object.__setattr__(self, f.name, float(getattr(self, f.name)))
            elif f.type in (int, "int"):
                object.__setattr__(self, f.name, as_int(getattr(self, f.name), f.name))
        if self.T < 1:
            raise ValueError("T must be at least 1")


@dataclass(frozen=True)
class NIIDSpec(SimulationSpec):
    """Independent standard normal returns."""

    model = "niid"
    T: int
    seed: int = 0

    def _fill(self, rngs, out: np.ndarray) -> None:
        for row, rng in zip(out, rngs):
            rng.standard_normal(out=row)


@dataclass(frozen=True)
class ARFIMASpec(SimulationSpec):
    """ARFIMA(0,d,0) returns, the MA expansion of (1-L)^(-d) cut at lag `truncation`."""

    model = "arfima"
    d: float
    T: int
    seed: int = 0
    truncation: int = 4999

    def __post_init__(self):
        super().__post_init__()
        if not abs(self.d) < 0.5:
            raise BadD(f"|d| must be below 0.5, got {self.d}")
        if self.truncation < 0:
            raise ValueError("truncation must be non-negative")

    def _fill(self, rngs, out: np.ndarray) -> None:
        # innovations for times 1..T come first and the pre-sample history after
        # them, so d=0 reproduces the NIID generator draw-for-draw on the same seed
        T, J = self.T, self.truncation
        if self.d == 0.0:
            return NIIDSpec(T)._fill(rngs, out)
        # the truncated MA filter as a full linear convolution by real FFT,
        # ARFIMA_ROWS rows at a time
        L = _fast_len(J + 1 + T + J)
        W = np.fft.rfft(arfima_weights(self.d, J), L)
        U = np.empty((min(ARFIMA_ROWS, len(rngs)), J + 1 + T))  # time order u_{-J}..u_T
        for lo in range(0, len(rngs), ARFIMA_ROWS):
            slab = rngs[lo:lo + ARFIMA_ROWS]
            for row, rng in zip(U, slab):
                rng.standard_normal(out=row[J + 1:])  # u_1..u_T
                rng.standard_normal(out=row[:J + 1])
                row[:J + 1] = row[J::-1]  # u_{-J}..u_0, drawn newest-last
            F = np.fft.rfft(U[:len(slab)], L, axis=1)
            F *= W
            out[lo:lo + len(slab)] = np.fft.irfft(F, L, axis=1)[:, J + 1:J + 1 + T]


@dataclass(frozen=True)
class LStableSpec(SimulationSpec):
    """Levy-stable returns: index `alpha`, skewness `beta`, location `mu`, scale `sigma`."""

    model = "lstable"
    alpha: float
    T: int
    seed: int = 0
    beta: float = 0.0
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.alpha <= 2.0:
            raise BadAlpha(f"alpha must lie in (0, 2], got {self.alpha}")
        if not abs(self.beta) <= 1.0:
            raise BadBeta(f"|beta| must be at most 1, got {self.beta}")
        if not self.sigma > 0.0:
            raise BadSigma(f"sigma must be positive, got {self.sigma}")

    def _fill(self, rngs, out: np.ndarray) -> None:
        # Chambers-Mallows-Stuck: V ~ U(-pi/2, pi/2) and W ~ exp(1) feed the
        # alpha != 1 and alpha = 1 branches; the output is rescaled by (sigma, mu).
        # Each branch is evaluated in place, with the ufuncs of its one-line form
        # in the same order, so V, W, A and `out` are its only blocks. V, W and A
        # are one allocation: glibc's heap-trim threshold follows the largest
        # block it has freed from mmap, and with three separate blocks it stays
        # below a block's working set, so the heap is trimmed and re-grown per call
        alpha, beta, mu, sigma = self.alpha, self.beta, self.mu, self.sigma
        V, W, A = np.empty((3, len(rngs), self.T))
        for i, rng in enumerate(rngs):
            V[i] = rng.uniform(-math.pi / 2, math.pi / 2, self.T)
            W[i] = rng.standard_exponential(self.T)
        X = out
        if abs(alpha - 1.0) < ALPHA_ONE_BAND:
            # X = (1/half_pi) * ((half_pi + beta*V) * tan(V)
            #                    - beta * log((W * cos(V)) / (half_pi + beta*V)))
            half_pi = math.pi / 2
            np.multiply(beta, V, out=A)
            A += half_pi
            np.tan(V, out=X)
            X *= A
            np.cos(V, out=V)
            W *= V
            W /= A
            np.log(W, out=W)
            W *= beta
            X -= W
            X *= 1.0 / half_pi
            X *= sigma
            X += (1.0 / half_pi) * beta * sigma * math.log(sigma)
            X += mu
            return
        # X = S * sin(alpha*(V+B)) / cos(V)**(1/alpha)
        #     * (cos(V - alpha*(V+B)) / W)**((1-alpha)/alpha)
        ta = math.tan(math.pi * alpha / 2.0)
        B = math.atan(beta * ta) / alpha
        S = (1.0 + beta * beta * ta * ta) ** (1.0 / (2.0 * alpha))
        np.add(V, B, out=A)
        A *= alpha
        np.sin(A, out=X)
        X *= S
        np.subtract(V, A, out=A)
        np.cos(A, out=A)
        A /= W
        A **= (1.0 - alpha) / alpha
        np.cos(V, out=V)
        V **= 1.0 / alpha
        X /= V
        X *= A
        X *= sigma
        X += mu


@dataclass(frozen=True)
class StudentTSpec(SimulationSpec):
    """Independent Student-t returns with `df` degrees of freedom."""

    model = "student_t"
    df: int
    T: int
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.df < 1:
            raise BadDF(f"df must be at least 1, got {self.df}")

    def _fill(self, rngs, out: np.ndarray) -> None:
        for i, rng in enumerate(rngs):
            out[i] = rng.standard_t(self.df, self.T)


@dataclass(frozen=True)
class ARRecursiveSpec(SimulationSpec):
    """Returns of the fitted AR model `ar`, after `burn_in` discarded steps."""

    model = "ar_recursive"
    chunk_rows = 256  # taller than a block: each time step costs numpy calls over all rows
    ar: ARModel
    T: int
    seed: int = 0
    burn_in: int = 1000

    def __post_init__(self):
        super().__post_init__()
        if self.ar is None:
            raise ValueError("ar_recursive needs a fitted ARModel")
        if self.burn_in < 1000:
            raise ValueError("burn_in must be at least 1000")
        if not np.all(np.isfinite(self.ar.coefficients)):
            raise NonFiniteValue(
                f"AR coefficients must be finite, got {self.ar.coefficients.tolist()}")
        _check_stationary(self.ar)

    def _fill(self, rngs, out: np.ndarray) -> None:
        """AR(p) series with innovations c + sd*u_t, u_t ~ N(0, 1), from zero
        state, the burn-in discarded, into the rows of `out`.

        The series are streamed through time: each row's next AR_DRAWS
        innovations are drawn into one buffer (a row draws the same values in
        any number of calls) and scaled in place (u*sd + c has the bits of
        c + sd*u), then filtered AR_STEPS steps at a time. Only the steps
        after the burn-in are kept.
        """
        model, N, burn_in = self.ar, self.burn_in + self.T, self.burn_in
        Z = np.empty((len(rngs), AR_DRAWS))

        def innovations():
            for t0 in range(0, N, AR_DRAWS):
                z = Z[:, :N - t0]
                for row, rng in zip(z, rngs):
                    rng.standard_normal(out=row)
                z *= model.residual_sd
                z += model.intercept
                for a in range(0, z.shape[1], AR_STEPS):
                    yield z[:, a:a + AR_STEPS]

        passes = innovations()
        if model.order > 0:
            # z_t = (c + sd*u_t) + sum(phi_i z_{t-i}) is an IIR filter from zero state
            passes = _ar_recursion(model.coefficients, len(rngs), passes)
        for t0, y in zip(range(-burn_in, self.T, AR_STEPS), passes):
            if t0 + AR_STEPS > 0:
                out[:, max(t0, 0):t0 + AR_STEPS] = y[:, max(-t0, 0):]


#: each model's spec class by its tag
MODELS = {c.model: c for c in (NIIDSpec, ARFIMASpec, LStableSpec, StudentTSpec, ARRecursiveSpec)}

# the library's constructors: a spec class takes its fields in order
niid_spec = NIIDSpec
arfima_spec = ARFIMASpec
lstable_spec = LStableSpec
student_t_spec = StudentTSpec
ar_recursive_spec = ARRecursiveSpec


def lstable_spec_for_hurst(H: float, T: int, seed: int = 0) -> LStableSpec:
    """Symmetric stable spec with alpha = 1/H exactly (H in [0.5, 1))."""
    if not 0.5 <= H < 1.0:
        raise BadAlpha(f"target H must lie in [0.5, 1), got {H}")
    return lstable_spec(alpha=1.0 / H, T=T, seed=seed)


def arfima_weights(d: float, J: int) -> np.ndarray:
    """Read-only weights gamma_0..gamma_J of the fractional-integration MA
    expansion of (1-L)^(-d): gamma_0 = 1, gamma_j = gamma_{j-1} (d+j-1)/j."""
    if not abs(d) < 0.5:
        raise BadD(f"|d| must be below 0.5, got {d}")
    if J < 0:
        raise ValueError("J must be non-negative")
    j = np.arange(1, J + 1, dtype=float)
    return _freeze(np.concatenate([[1.0], np.cumprod((d + j - 1.0) / j)]))


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


def _ar_recursion(phi: np.ndarray, rows: int, passes):
    """y_t = (((phi_p y_{t-p} + phi_{p-1} y_{t-p+1}) + ...) + phi_1 y_{t-1}) + x_t
    over `rows` series from zero state, fed by `passes`: `(rows, n)` arrays
    of the next x, n <= AR_STEPS. Yields each pass's y as a `(rows, n)`
    view of a time-major work buffer that the next pass overwrites.

    The rounding is that of `scipy.signal.lfilter([1], [1, -phi], X, axis=1)`
    on the passes joined along time, bit for bit, the sign of a zero
    included. lfilter's transposed direct form II keeps p delays and per step
    sets y = s_0 + x, then s_k = (s_{k+1} + x*0) + phi_{k+1} y with s_p = -0.
    Here one step is three numpy calls over the rows: u = (x, x*0, ..., x*0)
    + s gives y = u_0 and the delays plus x*0, then P = phi y and
    s_{0..p-1} = u_{1..p} + P.
    """
    p = len(phi)
    s = np.zeros((p + 1, rows))
    s[p] = -0.0
    # phi as a (p, rows) array: a broadcast multiply by y is slower
    delays, P, phi = s[:p], np.empty((p, rows)), np.repeat(phi[:, None], rows, axis=1)
    U = np.empty((AR_STEPS, p + 1, rows))
    for x in passes:
        x = x.T
        n = len(x)
        U[:n, 0] = x
        np.multiply(x[:, None], 0.0, out=U[:n, 1:])
        for u, y, u_tail in zip(U[:n], U[:n, 0], U[:n, 1:]):
            u += s
            np.multiply(phi, y, out=P)
            np.add(u_tail, P, out=delays)
        yield U[:n, 0].T


def generate_block(spec: SimulationSpec, seeds) -> tuple[np.ndarray, dict[int, NonFiniteValue]]:
    """One series of `spec` per seed, as the rows of a C-ordered
    `(len(seeds), T)` array.

    Row i draws from `rng_from_seed(seeds[i])`, the rows' generators seeded
    in one pass (`rng.generators`), and the model's transform runs
    on many rows at once (the ARFIMA convolution on ARFIMA_ROWS at a time),
    so row i is bit-identical to `generate` on that seed. Every model fills
    the one block in place, with at most a few block-sized work arrays. A row
    that is not finite fails alone: it is listed in the returned {row: error}
    map, and its values are meaningless.
    """
    X = np.empty((len(seeds), spec.T))
    with np.errstate(all="ignore"):
        spec._fill(generators(seeds), X)
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    return X, {int(i): NonFiniteValue("returns must be finite") for i in bad}


def generate(spec: SimulationSpec) -> ReturnsSeries:
    """The series of `spec` at `spec.seed`: the one-row case of `generate_block`."""
    X, errors = generate_block(spec, (spec.seed,))
    if errors:
        raise errors[0]
    return ReturnsSeries(X[0])

import cmath
import math

import numpy as np
import pytest

from selfaffine.errors import (
    BadOrdinateCount,
    NonFiniteValue,
    NonPositiveTail,
    TooShort,
    ZeroOrdinate,
)
from selfaffine.methods import estimate, estimate_point
from selfaffine.spectral_tail import TAIL_METHODS, _log, gph_regressor, periodogram, tail_block

from conftest import make_returns


def periodogram_oracle(x, j):
    """Explicit DFT sum for one harmonic ordinate."""
    T = len(x)
    lam = 2.0 * math.pi * j / T
    s = sum(x[t - 1] * cmath.exp(-1j * lam * t) for t in range(1, T + 1))
    return abs(s) ** 2 / (2.0 * math.pi * T)


class TestPeriodogram:
    def test_constant_series_vanishes(self):
        I = periodogram(make_returns([3.0] * 64), 10)
        assert np.all(I < 1e-20)

    def test_cosine_concentrates_at_its_frequency(self):
        T, j0 = 1024, 37
        t = np.arange(1, T + 1)
        x = np.cos(2.0 * math.pi * j0 * t / T)
        I = periodogram(make_returns(x), 100)
        others = np.delete(I, j0 - 1)
        assert I[j0 - 1] >= 100.0 * others.max()

    def test_matches_dft_oracle(self, rng):
        x = rng.standard_normal(48)
        I = periodogram(make_returns(x), 12)
        for j in (1, 5, 12):
            assert I[j - 1] == pytest.approx(periodogram_oracle(x, j), rel=1e-8)

    def test_parseval_identity(self, rng):
        # for odd T and mean-zero x the non-DC ordinates come in conjugate
        # pairs, so 2 * sum of the returned half-grid equals sum(x^2)/(2 pi)
        T = 101
        x = rng.standard_normal(T)
        x = x - x.mean()
        I = periodogram(make_returns(x), (T - 1) // 2)
        assert 2.0 * I.sum() == pytest.approx(float(x @ x) / (2.0 * math.pi),
                                              rel=1e-8)

    def test_ordinate_count_bounds(self, rng):
        r = make_returns(rng.standard_normal(100))
        with pytest.raises(BadOrdinateCount):
            periodogram(r, 0)
        with pytest.raises(BadOrdinateCount):
            periodogram(r, 50)
        assert len(periodogram(r, 49)) == 49

    def test_overflowing_ordinate_raises(self, rng):
        x = rng.standard_normal(200)
        x[3] = 1e200
        with pytest.raises(NonFiniteValue):
            periodogram(make_returns(x), 5)

    @pytest.mark.parametrize("method", ["gph", "robinson"])
    def test_an_overflowing_row_fails_as_in_the_kernel(self, method):
        r = make_returns(np.r_[1e300, -1e300, np.zeros(381)])
        with pytest.raises(NonFiniteValue, match="^periodogram ordinate overflows$"):
            periodogram(r, 19)
        with pytest.raises(NonFiniteValue, match="^periodogram ordinate overflows$"):
            estimate_point(method, r)


class TestGph:
    def test_regressor_zero_at_pi_over_three(self):
        # 2 sin(pi/6) = 1, so the regressor vanishes at lambda = pi/3
        assert gph_regressor(np.array([math.pi / 3.0]))[0] == pytest.approx(0.0, abs=1e-14)

    def test_ordinate_count(self, rng):
        est = estimate("gph", make_returns(rng.standard_normal(2000)))
        assert est.n_points == 44
        assert est.method == "gph"

    def test_white_noise_near_zero(self):
        vals = [estimate_point("gph", make_returns(
            np.random.default_rng(300 + i).standard_normal(2000)))
            for i in range(40)]
        assert abs(np.mean(vals)) < 3.0 * 0.111 / math.sqrt(40)

    def test_zero_ordinate(self):
        with pytest.raises(ZeroOrdinate):
            estimate_point("gph", make_returns(np.zeros(400)))

    def test_too_short(self, rng):
        with pytest.raises(TooShort):
            estimate_point("gph", make_returns(rng.standard_normal(99)))


class TestRobinson:
    def test_ordinate_count_capped(self, rng):
        est = estimate("robinson", make_returns(rng.standard_normal(2000)))
        assert est.n_points == min(int(2000 ** 0.9), 999)
        assert est.method == "robinson"

    def test_white_noise_near_zero(self, rng):
        d = estimate_point("robinson", make_returns(rng.standard_normal(5000)))
        assert abs(d) < 3.0 * 0.014

    def test_mean_shift_invariance(self, rng):
        z = rng.standard_normal(1000)
        a = estimate_point("robinson", make_returns(z))
        b = estimate_point("robinson", make_returns(z + 5.0))
        assert b == pytest.approx(a, abs=1e-9)


def full_sort_tail(X, method):
    """The tail formulas on a full descending sort of each row, ties kept in
    their original order: the reference for `tail_block`, which sorts only
    the tail."""
    m = int(math.floor(0.05 * X.shape[1]))
    x = -np.sort(-X, axis=1, kind="stable")
    if method == "pickands":
        d1, d2 = x[:, m - 1] - x[:, 2 * m - 1], x[:, 2 * m - 1] - x[:, 4 * m - 1]
        bad = (d1 <= 0.0) | (d2 <= 0.0)
        H = (_log(np.where(bad, 1.0, d1)) - _log(np.where(bad, 1.0, d2))) / math.log(2.0)
    elif method == "hill":
        bad = x[:, m - 1] <= 0.0
        H = np.log(x[:, : m - 1]).mean(axis=1) - _log(np.where(bad, 1.0, x[:, m - 1]))
    else:
        bad = (x[:, 0] <= 0.0) | (x[:, m - 1] <= 0.0)
        H = (_log(np.where(bad, 1.0, x[:, 0])) - _log(np.where(bad, 1.0, x[:, m - 1]))
             ) / math.log(m)
    return H, set(np.flatnonzero(bad).tolist())


class TestTailEstimators:
    @pytest.mark.parametrize("T", [100, 383, 2000])
    @pytest.mark.parametrize("served", [*[pytest.param((m,), id=m) for m in TAIL_METHODS],
                                        pytest.param(TAIL_METHODS, id="shared")])
    def test_tail_sort_equals_full_sort(self, served, T):
        # one call serves each method, or all of them from one sort
        rng = np.random.default_rng(T)
        z = rng.standard_normal((8, T))
        signed_zeros = np.where(rng.random(T) < 0.5, 0.0, -0.0)
        X = np.array([
            z[0],
            np.round(z[1], 1),  # ties
            np.round(z[2]),  # ties, -0 among them
            np.zeros(T),
            signed_zeros,
            np.where(np.arange(T) % 7 == 0, 1.5, signed_zeros),  # x_(m) tied, zeros below
            np.where(rng.random(T) < 0.03, 2.0, signed_zeros),  # x_(m) is a zero
            -np.abs(z[7]),
        ])
        with np.errstate(all="ignore"):
            fits = tail_block(X, served)
            for method, (values, errors, _, _) in zip(served, fits, strict=True):
                want, failing = full_sort_tail(X, method)
                assert values.tobytes() == want.tobytes()
                assert set(errors) == failing and failing
                assert all(isinstance(e, NonPositiveTail) for e in errors.values())

    def test_hand_computed_values(self):
        values = np.arange(1.0, 101.0)  # sorted ascending 1..100, m = 5
        r = make_returns(values)
        x = sorted(values, reverse=True)
        hill = sum(math.log(v) for v in x[:4]) / 4 - math.log(x[4])
        hr = (math.log(x[0]) - math.log(x[4])) / math.log(5)
        pick = (math.log(x[4] - x[9]) - math.log(x[9] - x[19])) / math.log(2)
        assert estimate_point("hill", r) == pytest.approx(hill, rel=1e-12)
        assert estimate_point("hr", r) == pytest.approx(hr, rel=1e-12)
        assert estimate_point("pickands", r) == pytest.approx(pick, rel=1e-12)

    def test_tail_count(self, rng):
        est = estimate("hill", make_returns(rng.standard_normal(2000)))
        assert est.n_points == 100

    def test_hill_on_exact_pareto(self):
        # x = u^(-1/2) has tail index 2, i.e. H = 0.5; Hill is its MLE
        vals = []
        for i in range(30):
            u = np.random.default_rng(500 + i).uniform(size=5000)
            vals.append(estimate_point("hill", make_returns(u ** -0.5)))
        assert np.mean(vals) == pytest.approx(0.5, abs=0.02)

    def test_scale_invariance_hill_hr(self, rng):
        z = rng.standard_normal(500)
        for method in ("hill", "hr"):
            base = estimate_point(method, make_returns(z))
            scaled = estimate_point(method, make_returns(4.0 * z))
            assert scaled == pytest.approx(base, abs=1e-9)

    def test_affine_invariance_pickands(self, rng):
        z = rng.standard_normal(500)
        base = estimate_point("pickands", make_returns(z))
        moved = estimate_point("pickands", make_returns(2.0 * z + 13.0))
        assert moved == pytest.approx(base, abs=1e-9)

    def test_non_positive_tail(self, rng):
        descending_negatives = -np.abs(rng.standard_normal(200)) - 1.0
        with pytest.raises(NonPositiveTail):
            estimate_point("hill", make_returns(descending_negatives))
        tied = np.concatenate([np.full(50, 7.0), rng.standard_normal(150)])
        with pytest.raises(NonPositiveTail):
            estimate_point("pickands", make_returns(tied))

    def test_tie_handling_deterministic(self, rng):
        values = np.round(rng.standard_normal(400), 1)  # force ties
        a = estimate_point("hill", make_returns(values))
        b = estimate_point("hill", make_returns(values))
        assert a == b

    def test_too_short_and_bad_method(self, rng):
        with pytest.raises(TooShort):
            estimate_point("hill", make_returns(rng.standard_normal(50)))
        with pytest.raises(ValueError):
            estimate_point("dekkers", make_returns(rng.standard_normal(200)))

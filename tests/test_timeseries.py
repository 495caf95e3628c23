import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtri

from selfaffine.errors import (
    DegenerateSeries,
    NonPositivePrice,
    OrderTooLarge,
    SingularDesign,
    TooShort,
)
from selfaffine.simulate import arfima_spec, generate
from selfaffine.timeseries import (
    ARModel,
    PriceSeries,
    _ndtri,
    ar_filter,
    fit_ar,
    log_returns,
    normalize_transform,
    random_reorder,
    read_prices_csv,
    read_values_csv,
    summary_stats,
    write_values_csv,
)

from conftest import make_returns


class TestLogReturns:
    def test_exact_logs(self):
        r = log_returns(PriceSeries([1.0, math.e, math.e ** 2]))
        np.testing.assert_allclose(r.values, [1.0, 1.0], atol=1e-14)

    def test_constant_price(self):
        r = log_returns(PriceSeries([100.0, 100.0, 100.0]))
        np.testing.assert_array_equal(r.values, [0.0, 0.0])

    def test_known_values(self):
        # ln(105/100) and ln(99.75/105) from an independent calculator
        r = log_returns(PriceSeries([100.0, 105.0, 99.75]))
        np.testing.assert_allclose(
            r.values, [0.04879016416943205, -0.05129329438755058], atol=1e-12)

    def test_rejects_nonpositive_price(self):
        with pytest.raises(NonPositivePrice):
            PriceSeries([100.0, -1.0, 50.0])
        with pytest.raises(NonPositivePrice):
            PriceSeries([100.0, 0.0])

    def test_rejects_short(self):
        with pytest.raises(TooShort):
            PriceSeries([100.0])

    @given(st.lists(st.floats(-0.2, 0.2), min_size=1, max_size=60))
    def test_roundtrip_through_prices(self, rets):
        prices = PriceSeries(100.0 * np.exp(np.concatenate([[0.0], np.cumsum(rets)])))
        back = log_returns(prices)
        np.testing.assert_allclose(back.values, rets, atol=1e-12)


class TestSummaryStats:
    def test_alternating_signs(self):
        s = summary_stats(make_returns([1.0, -1.0] * 10))
        assert s.mean == pytest.approx(0.0, abs=1e-15)
        assert s.sd == pytest.approx(1.0)
        assert s.skewness == pytest.approx(0.0, abs=1e-15)
        assert s.kurtosis == pytest.approx(1.0)

    def test_gaussian_kurtosis_near_three(self, rng):
        s = summary_stats(make_returns(rng.standard_normal(200000)))
        assert s.kurtosis == pytest.approx(3.0, abs=0.1)
        assert s.skewness == pytest.approx(0.0, abs=0.05)

    def test_degenerate_series(self):
        with pytest.raises(DegenerateSeries):
            summary_stats(make_returns([2.0] * 10))

    def test_too_short(self):
        with pytest.raises(TooShort):
            summary_stats(make_returns([1.0, 2.0, 3.0]))

    @given(st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=40))
    def test_moment_inequalities(self, values):
        r = make_returns(values)
        try:
            s = summary_stats(r)
        except DegenerateSeries:
            return
        assert s.sd >= 0
        assert s.kurtosis >= 1.0 - 1e-9
        assert s.kurtosis >= s.skewness ** 2 + 1.0 - 1e-9


class TestRandomReorder:
    def test_preserves_multiset(self, rng):
        r = make_returns(rng.standard_normal(257))
        out = random_reorder(r, seed=5)
        np.testing.assert_array_equal(np.sort(out.values), np.sort(r.values))

    def test_deterministic(self, rng):
        r = make_returns(rng.standard_normal(100))
        a = random_reorder(r, seed=9)
        b = random_reorder(r, seed=9)
        np.testing.assert_array_equal(a.values, b.values)
        c = random_reorder(r, seed=10)
        assert not np.array_equal(a.values, c.values)

    def test_moments_unchanged(self, rng):
        r = make_returns(rng.standard_normal(500))
        s0, s1 = summary_stats(r), summary_stats(random_reorder(r, 3))
        assert s0.mean == pytest.approx(s1.mean, abs=1e-12)
        assert s0.sd == pytest.approx(s1.sd, abs=1e-12)
        assert s0.skewness == pytest.approx(s1.skewness, abs=1e-9)
        assert s0.kurtosis == pytest.approx(s1.kurtosis, abs=1e-9)

    def test_destroys_long_range_dependence(self):
        r = generate(arfima_spec(0.4, 5000, seed=21))
        out = random_reorder(r, seed=1).values
        rho1 = np.corrcoef(out[:-1], out[1:])[0, 1]
        assert abs(rho1) < 3.0 / math.sqrt(len(out))


class TestNormalizeTransform:
    def test_quartile_quantiles(self):
        out = normalize_transform(make_returns([5.0, 1.0, 9.0]))
        np.testing.assert_allclose(
            out.values, [0.0, -0.6744897501960817, 0.6744897501960817], atol=1e-9)

    def test_monotone_on_sorted_input(self):
        out = normalize_transform(make_returns(np.linspace(-2, 5, 40)))
        assert np.all(np.diff(out.values) > 0)

    def test_idempotent_on_distinct_values(self, rng):
        r = make_returns(rng.standard_normal(75))
        once = normalize_transform(r)
        twice = normalize_transform(once)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-12)

    def test_multiset_is_fixed_quantile_grid(self, rng):
        T = 64
        out = normalize_transform(make_returns(rng.standard_normal(T)))
        expected = normalize_transform(make_returns(np.arange(T, dtype=float)))
        np.testing.assert_allclose(np.sort(out.values), expected.values, atol=1e-12)

    def test_rank_order_preserved(self, rng):
        r = make_returns(rng.standard_normal(50))
        out = normalize_transform(r)
        np.testing.assert_array_equal(np.argsort(out.values, kind="stable"),
                                      np.argsort(r.values, kind="stable"))

    def test_ndtri_is_scipy_bit_for_bit_on_rank_quantiles(self):
        # both branches and the reflection: the tails start at k/(T+1) < exp(-2)
        for T in [*range(1, 3001), 4999, 10_007, 65_536, 199_999]:
            p = np.arange(1, T + 1) / (T + 1.0)
            assert np.array_equal(_ndtri(p), ndtri(p)), T

    def test_returns_of_demo_prices_match_scipy(self):
        r = log_returns(read_prices_csv(Path(__file__).parent / "data" / "prices_demo.csv"))
        ranks = np.argsort(np.argsort(r.values, kind="stable"), kind="stable") + 1
        assert np.array_equal(normalize_transform(r).values, ndtri(ranks / (len(r) + 1.0)))


class TestARFitting:
    def test_max_lag_zero_gives_mean(self, rng):
        r = make_returns(rng.standard_normal(200))
        model = fit_ar(r, max_lag=0)
        assert model.order == 0
        assert model.intercept == pytest.approx(float(r.values.mean()), abs=1e-12)

    def test_recovers_ar1_coefficient(self):
        rng = np.random.default_rng(77)
        z = np.empty(5000)
        z[0] = 0.0
        eps = rng.standard_normal(5000)
        for t in range(1, 5000):
            z[t] = 0.5 * z[t - 1] + eps[t]
        model = fit_ar(make_returns(z), max_lag=5)
        assert model.order >= 1
        assert model.coefficients[0] == pytest.approx(0.5, abs=0.05)

    def test_niid_mostly_selects_order_zero(self):
        chosen = 0
        for i in range(200):
            r = make_returns(np.random.default_rng(1000 + i).standard_normal(300))
            if fit_ar(r, max_lag=10).order == 0:
                chosen += 1
        assert chosen >= 120  # selection rate of the true order >= 0.6

    def test_too_short(self, rng):
        with pytest.raises(TooShort):
            fit_ar(make_returns(rng.standard_normal(50)), max_lag=10)

    def test_bad_criterion(self, rng):
        with pytest.raises(ValueError):
            fit_ar(make_returns(rng.standard_normal(200)), criterion="hqic")

    def test_rank_deficient_design(self, rng):
        # over the common sample (from observation max_lag + 1) the lag-1
        # column is the constant 0.001, collinear with the intercept
        z = np.concatenate([rng.standard_normal(9), np.full(190, 0.001), [0.02]])
        with pytest.raises(SingularDesign, match="rank-deficient design at order 1"):
            fit_ar(make_returns(z), max_lag=10)


class TestARFilter:
    def test_order_zero_demeans(self, rng):
        r = make_returns(rng.standard_normal(300))
        model = fit_ar(r, max_lag=0)
        out = ar_filter(r, model)
        np.testing.assert_allclose(out.values, r.values - r.values.mean(), atol=1e-12)

    def test_residuals_are_white(self):
        rng = np.random.default_rng(3)
        z = np.empty(4000)
        z[0] = 0.0
        eps = rng.standard_normal(4000)
        for t in range(1, 4000):
            z[t] = 0.6 * z[t - 1] + eps[t]
        r = make_returns(z)
        resid = ar_filter(r, fit_ar(r, max_lag=5)).values
        rho1 = np.corrcoef(resid[:-1], resid[1:])[0, 1]
        assert abs(rho1) < 3.0 / math.sqrt(len(resid))

    def test_true_model_recovers_innovations(self):
        rng = np.random.default_rng(8)
        eps = rng.standard_normal(1000)
        z = np.empty(1000)
        z[0] = eps[0]
        for t in range(1, 1000):
            z[t] = 0.4 * z[t - 1] + eps[t]
        truth = ARModel(order=1, intercept=0.0, coefficients=np.array([0.4]),
                        residual_sd=1.0)
        resid = ar_filter(make_returns(z), truth)
        np.testing.assert_allclose(resid.values, eps[1:], atol=1e-12)

    def test_order_too_large(self):
        model = ARModel(order=5, intercept=0.0, coefficients=np.zeros(5),
                        residual_sd=1.0)
        with pytest.raises(OrderTooLarge):
            ar_filter(make_returns([1.0, 2.0, 3.0]), model)


class TestCsvIO:
    def test_prices_roundtrip(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,close\n2020-01-01,100.0\n2020-01-02,101.5\n")
        prices = read_prices_csv(path)
        np.testing.assert_allclose(prices.values, [100.0, 101.5])

    def test_prices_bad_header(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("time,price\n1,2\n")
        with pytest.raises(ValueError):
            read_prices_csv(path)

    def test_prices_non_numeric(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,close\n2020-01-01,abc\n")
        with pytest.raises(ValueError):
            read_prices_csv(path)

    def test_prices_non_positive(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,close\n2020-01-01,100\n2020-01-02,-3\n")
        with pytest.raises(NonPositivePrice):
            read_prices_csv(path)

    def test_prices_too_short(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,close\n2020-01-01,100\n")
        with pytest.raises(TooShort):
            read_prices_csv(path)

    def test_values_roundtrip(self, tmp_path, rng):
        values = rng.standard_normal(20)
        path = tmp_path / "v.csv"
        write_values_csv(path, values)
        back = read_values_csv(path)
        np.testing.assert_array_equal(back.values, values)

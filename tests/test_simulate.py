import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import fft, stats

from selfaffine.errors import (
    BadAlpha,
    BadBeta,
    BadD,
    BadDF,
    BadSigma,
    ExplosiveModel,
    NonFiniteValue,
)
from selfaffine.rng import derive_seed, rng_from_seed
from selfaffine.simulate import (
    _fast_len,
    ar_recursive_spec,
    arfima_acf,
    arfima_spec,
    arfima_weights,
    generate,
    generate_block,
    lstable_spec,
    lstable_spec_for_hurst,
    niid_spec,
    student_t_spec,
)
from selfaffine.timeseries import ARModel


def sample_acf(z: np.ndarray, k: int) -> float:
    dev = z - z.mean()
    return float((dev[:-k] @ dev[k:]) / (dev @ dev))


class TestWeights:
    def test_d_zero_is_identity(self):
        w = arfima_weights(0.0, 6)
        np.testing.assert_array_equal(w, [1, 0, 0, 0, 0, 0, 0])

    def test_values_at_half(self):
        # product formula evaluated at the boundary: 0.5, 0.375, 0.3125
        w = arfima_weights(0.5 - 1e-12, 3)
        np.testing.assert_allclose(w, [1.0, 0.5, 0.375, 0.3125], atol=1e-9)

    def test_recursion_identity_at_tail(self):
        d, J = 0.08, 4999
        w = arfima_weights(d, J)
        assert w[J] / w[J - 1] == pytest.approx((d + J - 1) / J, rel=1e-12)

    def test_product_formula_oracle(self):
        d, J = 0.3, 8
        w = arfima_weights(d, J)
        for j in range(1, J + 1):
            gamma = math.prod((d + k - 1) for k in range(1, j + 1)) / math.factorial(j)
            assert w[j] == pytest.approx(gamma, rel=1e-12)

    def test_positive_decreasing_for_positive_d(self):
        w = arfima_weights(0.3, 200)
        assert np.all(w > 0)
        assert np.all(np.diff(w[1:]) < 0)

    def test_rejects_bad_d(self):
        with pytest.raises(BadD):
            arfima_weights(0.5, 10)
        with pytest.raises(BadD):
            arfima_weights(-0.6, 10)


class TestArfima:
    def test_d_zero_equals_niid_stream(self):
        a = generate(arfima_spec(0.0, 500, seed=3))
        b = generate(niid_spec(500, seed=3))
        np.testing.assert_array_equal(a.values, b.values)

    def test_fft_matches_direct_convolution(self):
        spec = arfima_spec(0.3, 300, seed=11)
        fast = generate(spec)
        # the same draws, filtered by the direct O(J*T) sum
        J, rng = spec.truncation, rng_from_seed(11)
        sample = rng.standard_normal(300)
        u = np.concatenate([rng.standard_normal(J + 1)[::-1], sample])
        slow = np.convolve(u, arfima_weights(0.3, J))[J + 1 : J + 1 + 300]
        np.testing.assert_allclose(fast.values, slow, atol=1e-9)

    def test_lag_one_autocorrelation(self):
        z = generate(arfima_spec(0.2, 100000, seed=5)).values
        assert sample_acf(z, 1) == pytest.approx(0.2 / 0.8, abs=0.02)

    def test_acf_matches_theory_first_five_lags(self):
        d, reps, T = 0.1, 30, 100000
        theory = arfima_acf(d, 5)
        acfs = np.array([[sample_acf(generate(arfima_spec(d, T, seed=s)).values, k)
                          for k in range(1, 6)] for s in range(reps)])
        mean = acfs.mean(axis=0)
        se = acfs.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(mean - theory) < 3 * se)

    def test_deterministic(self):
        spec = arfima_spec(0.12, 200, seed=42)
        np.testing.assert_array_equal(generate(spec).values, generate(spec).values)

    def test_rejects_bad_d(self):
        with pytest.raises(BadD):
            arfima_spec(0.5, 100)


class TestLStable:
    def test_gaussian_limit_variance(self):
        z = generate(lstable_spec(2.0, 100000, seed=9)).values
        assert z.var() == pytest.approx(2.0, abs=0.05)

    def test_gaussian_limit_ks(self):
        # at alpha=2 the draws are N(mu, sd=sigma*sqrt(2)); 1% KS level
        passes = 0
        for seed in range(40):
            z = generate(lstable_spec(2.0, 10000, seed=seed)).values
            stat, _ = stats.kstest(z, "norm", args=(0.0, math.sqrt(2.0)))
            passes += stat < 1.63 / math.sqrt(10000)
        assert passes >= 38  # >= 95% of seeds

    def test_symmetric_median_near_zero(self):
        z = generate(lstable_spec(1.5, 20000, seed=2)).values
        iqr = np.percentile(z, 75) - np.percentile(z, 25)
        assert abs(np.median(z)) < 3.0 * iqr / math.sqrt(len(z))

    def test_location_scale(self):
        base = generate(lstable_spec(1.7, 1000, seed=4)).values
        moved = generate(lstable_spec(1.7, 1000, seed=4, mu=3.0, sigma=2.0)).values
        np.testing.assert_allclose(moved, 2.0 * base + 3.0, atol=1e-12)

    def test_alpha_one_guard_band(self):
        exact = generate(lstable_spec(1.0, 500, seed=6, beta=0.5)).values
        banded = generate(lstable_spec(1.0 + 1e-8, 500, seed=6, beta=0.5)).values
        np.testing.assert_array_equal(exact, banded)
        assert np.all(np.isfinite(exact))

    def test_spec_for_target_hurst(self):
        spec = lstable_spec_for_hurst(0.62, 1000)
        assert spec.alpha == pytest.approx(1.0 / 0.62, rel=0, abs=0)

    def test_int_parameters_are_coerced_to_float(self):
        spec = lstable_spec(2, 500, beta=0, mu=1, sigma=3)
        assert spec == lstable_spec(2.0, 500, beta=0.0, mu=1.0, sigma=3.0)
        assert all(type(getattr(spec, f)) is float for f in ("d", "alpha", "beta", "mu", "sigma"))

    def test_parameter_validation(self):
        with pytest.raises(BadAlpha):
            lstable_spec(2.5, 100)
        with pytest.raises(BadAlpha):
            lstable_spec(0.0, 100)
        with pytest.raises(BadBeta):
            lstable_spec(1.5, 100, beta=1.5)
        with pytest.raises(BadSigma):
            lstable_spec(1.5, 100, sigma=0.0)


class TestIid:
    def test_niid_moments(self):
        z = generate(niid_spec(200000, seed=1)).values
        assert z.mean() == pytest.approx(0.0, abs=0.01)
        assert z.var() == pytest.approx(1.0, abs=0.02)

    def test_student_t_variance(self):
        z = generate(student_t_spec(10, 200000, seed=2)).values
        assert z.var() == pytest.approx(10.0 / 8.0, abs=0.05)

    def test_rejects_bad_df(self):
        with pytest.raises(BadDF):
            student_t_spec(0, 100)


class TestArRecursive:
    def test_zero_model_matches_stream_tail(self):
        model = ARModel(order=0, intercept=0.0, coefficients=np.empty(0),
                        residual_sd=1.0)
        spec = ar_recursive_spec(model, 300, seed=13, burn_in=1000)
        out = generate(spec).values
        expected = rng_from_seed(13).standard_normal(1300)[1000:]
        np.testing.assert_array_equal(out, expected)

    def test_ar1_autocorrelation(self):
        model = ARModel(order=1, intercept=0.0, coefficients=np.array([0.5]),
                        residual_sd=1.0)
        z = generate(ar_recursive_spec(model, 100000, seed=3)).values
        assert sample_acf(z, 1) == pytest.approx(0.5, abs=0.01)

    def test_intercept_shifts_mean(self):
        model = ARModel(order=1, intercept=1.0, coefficients=np.array([0.5]),
                        residual_sd=0.5)
        z = generate(ar_recursive_spec(model, 50000, seed=4)).values
        assert z.mean() == pytest.approx(1.0 / (1 - 0.5), abs=0.05)

    @pytest.mark.parametrize("phi", [1.01, 1.0])
    def test_explosive_rejected(self, phi):
        model = ARModel(order=1, intercept=0.0, coefficients=np.array([phi]),
                        residual_sd=1.0)
        with pytest.raises(ExplosiveModel):
            generate(ar_recursive_spec(model, 100, seed=1))


class TestDeterminismAndStreams:
    @pytest.mark.parametrize("spec", [
        niid_spec(64, seed=5),
        arfima_spec(0.2, 64, seed=5),
        lstable_spec(1.6, 64, seed=5, beta=0.3),
        student_t_spec(7, 64, seed=5),
    ])
    def test_identical_spec_identical_output(self, spec):
        np.testing.assert_array_equal(generate(spec).values, generate(spec).values)

    def test_derived_seeds_are_pure_and_distinct(self):
        assert derive_seed(123, 4) == derive_seed(123, 4)
        seeds = {derive_seed(123, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_substreams_look_independent(self):
        a = rng_from_seed(derive_seed(9, 0)).standard_normal(5000)
        b = rng_from_seed(derive_seed(9, 1)).standard_normal(5000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05

    def test_generator_algorithm_pinned(self):
        # golden draws for PCG64 under seed 12345; a change here means the
        # stream contract was silently broken
        got = rng_from_seed(12345).standard_normal(3)
        np.testing.assert_allclose(
            got, [-1.4238250364546312, 1.2637284581291104, -0.8706617379590857],
            atol=1e-15)


AR4 = ARModel(order=4, intercept=0.01, coefficients=np.array([0.2, -0.1, 0.05, 0.03]),
              residual_sd=0.7)
AR0 = ARModel(order=0, intercept=0.1, coefficients=np.empty(0), residual_sd=2.0)


class TestBlockContract:
    """Row i of a block is the one-row series of the same seed, bit for bit."""

    @pytest.mark.parametrize("spec", [
        niid_spec(150),
        student_t_spec(5, 150),
        arfima_spec(0.0, 150),
        arfima_spec(0.2, 150),
        lstable_spec(1.0 + 1e-8, 150, beta=0.5),
        lstable_spec(1.5, 150, beta=0.3),
        ar_recursive_spec(AR4, 150),
        ar_recursive_spec(AR0, 150),
    ], ids=["niid", "student-t", "arfima-d0", "arfima-d0.2", "lstable-alpha1",
            "lstable-1.5", "ar4", "ar0"])
    def test_rows_equal_one_row_series(self, spec):
        seeds = [derive_seed(4, i) for i in range(9)]
        X, errors = generate_block(spec, seeds)
        assert X.shape == (9, 150) and errors == {}
        for row, seed in zip(X, seeds):
            assert row.tobytes() == generate(replace(spec, seed=seed)).values.tobytes()

    def test_overflowing_row_fails_alone(self):
        spec = lstable_spec(0.01, 500)
        seeds = [derive_seed(0, i) for i in range(64)]
        X, errors = generate_block(spec, seeds)
        assert 0 < len(errors) < 64
        for i, seed in enumerate(seeds):
            one = replace(spec, seed=seed)
            if i in errors:
                assert isinstance(errors[i], NonFiniteValue)
                with pytest.raises(NonFiniteValue):
                    generate(one)
            else:
                assert X[i].tobytes() == generate(one).values.tobytes()

    def test_fft_length_is_scipys_real_fast_length(self):
        assert [_fast_len(n) for n in range(1, 20000)] == [
            fft.next_fast_len(n, True) for n in range(1, 20000)]

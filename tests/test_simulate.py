import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import fft, signal, stats

from selfaffine.errors import (
    BadAlpha,
    BadBeta,
    BadD,
    BadDF,
    BadSigma,
    ExplosiveModel,
    NonFiniteValue,
)
from selfaffine.methods import FA_METHODS, METHODS, estimate_blocks
from selfaffine.rng import _PASS_ROWS, derive_seed, derive_seeds, generators, rng_from_seed
from selfaffine.simulate import (
    ALPHA_ONE_BAND,
    AR_DRAWS,
    AR_STEPS,
    ARFIMA_ROWS,
    MODELS,
    _ar_recursion,
    _fast_len,
    ar_recursive_spec,
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

from conftest import arfima_acf


def sample_acf(z: np.ndarray, k: int) -> float:
    dev = z - z.mean()
    return float((dev[:-k] @ dev[k:]) / (dev @ dev))


def test_a_spec_holds_only_its_own_model_parameters():
    assert vars(niid_spec(100)) == {"T": 100, "seed": 0}
    with pytest.raises(TypeError):
        MODELS["niid"](T=100, d=0.3)
    assert vars(student_t_spec(5, 100, seed=2)) == {"df": 5, "T": 100, "seed": 2}
    assert all(spec_class.model == tag for tag, spec_class in MODELS.items())


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

    @pytest.mark.parametrize("d", [0.1, 0.0])
    def test_rejects_negative_truncation(self, d):
        # rejected when the spec is built, as T < 1 is, not when generated
        with pytest.raises(ValueError, match="truncation must be non-negative"):
            arfima_spec(d, 50, truncation=-1)


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
        assert all(type(getattr(spec, f)) is float for f in ("alpha", "beta", "mu", "sigma"))
        assert type(arfima_spec(0, 500).d) is float

    @pytest.mark.parametrize("alpha, beta, sigma, mu", [
        (1.0 + 1e-8, 0.5, 2.0, 0.3), (1.0 - 1e-8, -0.7, 0.3, -1.3), (1.5, 0.3, 3.0, 2.0),
        (2.0, 0.0, 1.0, 0.0), (0.5, 1.0, 0.5, 1.0)])
    def test_in_place_transform_equals_the_one_line_form(self, alpha, beta, sigma, mu):
        # alpha = 2 and 0.5 power by 0.5, 1 and 2, numpy's scalar fast paths
        spec = lstable_spec(alpha, 300, beta=beta, sigma=sigma, mu=mu)
        seeds = [derive_seed(8, i) for i in range(5)]
        V, W = np.empty((2, len(seeds), 300))
        for i, seed in enumerate(seeds):
            rng = rng_from_seed(seed)
            V[i] = rng.uniform(-math.pi / 2, math.pi / 2, 300)
            W[i] = rng.standard_exponential(300)
        with np.errstate(all="ignore"):
            if abs(alpha - 1.0) < ALPHA_ONE_BAND:
                half_pi = math.pi / 2
                X = (1.0 / half_pi) * ((half_pi + beta * V) * np.tan(V)
                                       - beta * np.log((W * np.cos(V)) / (half_pi + beta * V)))
                want = sigma * X + (1.0 / half_pi) * beta * sigma * math.log(sigma) + mu
            else:
                ta = math.tan(math.pi * alpha / 2.0)
                B = math.atan(beta * ta) / alpha
                S = (1.0 + beta * beta * ta * ta) ** (1.0 / (2.0 * alpha))
                X = (S * np.sin(alpha * (V + B)) / np.cos(V) ** (1.0 / alpha)
                     * (np.cos(V - alpha * (V + B)) / W) ** ((1.0 - alpha) / alpha))
                want = sigma * X + mu
        assert generate_block(spec, seeds)[0].tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("rows", [1, 7, 64])
    @pytest.mark.parametrize("p", range(1, 11))
    def test_recursion_is_lfilter_bit_for_bit(self, p, rows):
        # lfilter is the oracle for every bit, the sign of a zero included.
        # Rows that open with a run of -0 under negative coefficients make
        # lfilter's x*0 terms show: its outputs there are -0, where a recursion
        # without them gives +0
        rng = np.random.default_rng(100 * p + rows)
        N = 2 * AR_STEPS + 37
        runs = rng.standard_normal((rows, N))
        zeros = rng.random((rows, N)) < 0.4
        runs[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
        runs[:, :3 * p] = -0.0
        cases = [(rng.uniform(-1.0, 1.0, p) / p, rng.standard_normal((rows, N))),
                 (-rng.uniform(0.0, 1.0, p) / p, runs)]
        # passes of every length up to AR_STEPS, a one-step pass included
        cuts = [0, 1, AR_STEPS + 1, AR_STEPS + 40, N]
        for phi, X in cases:
            before = X.tobytes()
            passes = (X[:, a:b] for a, b in zip(cuts, cuts[1:]))
            # each yielded pass is a view of a buffer the next pass overwrites
            got = np.concatenate([y.copy() for y in _ar_recursion(phi, rows, passes)], axis=1)
            want = signal.lfilter([1.0], np.concatenate([[1.0], -phi]), X, axis=1)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert X.tobytes() == before  # the input is left as it was

    @pytest.mark.parametrize("rows", [1, 7, 256])
    @pytest.mark.parametrize("p", range(0, 11))
    def test_streamed_generator_equals_whole_rows(self, p, rows):
        # the reference draws each row whole, scales it to c + sd*u, filters
        # it and drops the burn-in. The (T, burn-in) pairs put the end of the
        # burn-in and of the series on and beside the generator's pass
        # boundaries: its recursion passes end at multiples of AR_STEPS, its
        # draws at multiples of AR_DRAWS
        rng = np.random.default_rng(p)
        model = ARModel(order=p, intercept=float(rng.normal()),
                        coefficients=rng.uniform(-0.9, 0.9, p) / max(p, 1),
                        residual_sd=float(rng.uniform(0.1, 2.0)))
        seeds = [derive_seed(p, i) for i in range(rows)]
        edge = -(-1000 // AR_DRAWS) * AR_DRAWS  # the first draw boundary after 1000 steps
        for T, burn_in in ((1, 1000), (edge - 1000, 1000), (edge - 999, 1000), (1, edge - 1),
                           (AR_STEPS - 1, edge), (AR_STEPS, edge), (2 * AR_STEPS + 1, edge + 1),
                           (AR_DRAWS, edge), (AR_DRAWS + 1, edge)):
            Z = model.intercept + model.residual_sd * np.array(
                [rng_from_seed(s).standard_normal(burn_in + T) for s in seeds])
            if p:
                Z = signal.lfilter([1.0], np.concatenate([[1.0], -model.coefficients]), Z,
                                   axis=1)
            want = Z[:, burn_in:]
            got, errors = generate_block(ar_recursive_spec(model, T, burn_in=burn_in), seeds)
            assert errors == {} and got.shape == (rows, T) and got.flags.c_contiguous
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("phi", [1.01, 1.0])
    def test_explosive_rejected(self, phi):
        model = ARModel(order=1, intercept=0.0, coefficients=np.array([phi]),
                        residual_sd=1.0)
        with pytest.raises(ExplosiveModel):
            generate(ar_recursive_spec(model, 100, seed=1))

    @pytest.mark.parametrize("phi", [[np.nan], [0.2, np.inf], [-np.inf, 0.1]])
    def test_non_finite_coefficients_rejected_before_the_root_check(self, phi):
        model = ARModel(order=len(phi), intercept=0.0, coefficients=np.array(phi),
                        residual_sd=1.0)
        with pytest.raises(NonFiniteValue, match="AR coefficients must be finite"):
            ar_recursive_spec(model, 100)


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


class TestSeedingPass:
    """`derive_seeds` and `generators` hash a chunk's seeds in one pass, with
    numpy's SeedSequence bits: a numpy that changes its hash fails here
    rather than moving every stream."""

    @pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64])
    def test_derive_seeds_are_numpys(self, master):
        # masters of one, two and three entropy words
        for lo, hi in ((0, 2), (2**32 - 1, 2**32)):
            want = [int(np.random.SeedSequence([master, i]).generate_state(1, np.uint64)[0])
                    for i in range(lo, hi)]
            got = derive_seeds(master, lo, hi)
            assert got.dtype == np.uint64 and got.tolist() == want
        assert derive_seeds(master, 5, 300).tolist() == [derive_seed(master, i)
                                                         for i in range(5, 300)]

    def test_negative_seeds_and_two_word_indices_are_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            derive_seeds(-1, 0, 10)
        with pytest.raises(ValueError, match="do not lie in"):  # a two-word index
            derive_seeds(1, 2**32 - 1, 2**32 + 1)
        with pytest.raises(ValueError, match="non-negative"):
            generators([-1] * _PASS_ROWS)

    def assert_numpys(self, seeds):
        assert len(seeds) >= _PASS_ROWS  # one pass, not numpy row by row
        for gen, seed in zip(generators(seeds), seeds, strict=True):
            assert not isinstance(gen.bit_generator.seed_seq, np.random.SeedSequence)
            assert gen.bit_generator.state == rng_from_seed(seed).bit_generator.state

    def test_generators_are_numpys_at_edge_seeds(self):
        self.assert_numpys([0, 1, 2**32 - 1, 2**32, 2**64 - 1] * 2)

    def test_one_chunk_mixes_one_and_two_word_seeds(self):
        seeds = [int(s) >> 32 * (i % 3 == 0) for i, s in enumerate(derive_seeds(7, 0, 40))]
        random.Random(1).shuffle(seeds)
        assert {s < 2**32 for s in seeds} == {True, False}
        self.assert_numpys(seeds)
        # numpy's own draws, whichever generator draws first
        gens = generators(seeds)
        for gen, seed in reversed(list(zip(gens, seeds))):
            assert gen.standard_normal(3).tobytes() == \
                rng_from_seed(seed).standard_normal(3).tobytes()

    def test_seeds_of_more_words_and_short_chunks_take_numpys_path(self):
        for seeds in ([2**64, 3] * _PASS_ROWS, [5, 2**32]):
            for gen, seed in zip(generators(seeds), seeds, strict=True):
                assert isinstance(gen.bit_generator.seed_seq, np.random.SeedSequence)
                assert gen.bit_generator.state == rng_from_seed(seed).bit_generator.state


AR4 = ARModel(order=4, intercept=0.01, coefficients=np.array([0.2, -0.1, 0.05, 0.03]),
              residual_sd=0.7)
AR0 = ARModel(order=0, intercept=0.1, coefficients=np.empty(0), residual_sd=2.0)


#: a 64x2000 block of each model, and each estimate_blocks pass over one,
#: whose traced peak memory is bounded
MEMORY_SPECS = {
    "niid": niid_spec(2000),
    "student-t": student_t_spec(5, 2000),
    "arfima-d0": arfima_spec(0.0, 2000),
    "arfima": arfima_spec(0.08, 2000),
    "lstable-alpha1": lstable_spec(1.0 + 1e-8, 2000, beta=0.5),
    "lstable": lstable_spec_for_hurst(0.58, 2000),
    "ar4": ar_recursive_spec(AR4, 2000),
}
MEMORY_PASSES = {**{m: (m,) for m in METHODS}, "fa-union": FA_METHODS}


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
        *(arfima_spec(d, T) for d in (0.08, -0.3, 0.45) for T in (150, 2000)),
    ], ids=["niid", "student-t", "arfima-d0", "arfima-d0.2", "lstable-alpha1",
            "lstable-1.5", "ar4", "ar0", *(f"arfima-d{d}-T{T}" for d in (0.08, -0.3, 0.45)
                                           for T in (150, 2000))])
    def test_rows_equal_one_row_series(self, spec):
        # two full ARFIMA slabs and a partial one
        seeds = [derive_seed(4, i) for i in range(2 * ARFIMA_ROWS + 5)]
        assert 2 * ARFIMA_ROWS < len(seeds) < 3 * ARFIMA_ROWS
        X, errors = generate_block(spec, seeds)
        assert X.shape == (len(seeds), spec.T) and X.dtype == np.float64 and errors == {}
        # C order: the engine estimates the block without a copy
        assert X.flags.c_contiguous
        for row, seed in zip(X, seeds):
            assert row.tobytes() == generate(replace(spec, seed=seed)).values.tobytes()

    @pytest.mark.parametrize("case", [*(f"generate-{name}" for name in MEMORY_SPECS),
                                      *(f"estimate-{name}" for name in MEMORY_PASSES)])
    def test_block_memory_is_bounded(self, case):
        # every generator and estimator pass keeps its temporaries within a few
        # block-sized arrays (a 64x2000 block is 0.98 MiB): powering every FA
        # order at once peaked at 5.5 MiB (10.8 MiB over the FA union), one FFT
        # over 64 ARFIMA rows at 15.2 MiB, 16-row slabs at 4.9 MiB, and the
        # one-line stable transform at 4.9 MiB
        kind, name = case.split("-", 1)
        seeds = [derive_seed(0, i) for i in range(64)]
        if kind == "generate":
            def call():
                generate_block(MEMORY_SPECS[name], seeds)
        else:
            X = generate_block(niid_spec(2000), seeds)[0]

            def call():
                estimate_blocks(MEMORY_PASSES[name], X)
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 2**20

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

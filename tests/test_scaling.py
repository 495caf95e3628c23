import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfaffine.errors import (
    AllZeroIncrements,
    NonFiniteValue,
    TooShort,
    ZeroDispersion,
    ZeroPartition,
)
from selfaffine.methods import estimate_point
from selfaffine.scaling import (
    QGrid,
    ScaleGrid,
    estimate_fa,
    estimate_rra,
    partition_function,
    qgrid,
    rs_statistic,
    time_scale_grid,
)
from selfaffine.simulate import generate, niid_spec
from selfaffine.timeseries import LogPricePath

from conftest import make_returns

GRID_1000 = (5, 6, 7, 8, 9, 10, 12, 14, 16, 19, 22, 26, 30, 35, 40,
             47, 55, 63, 74, 86)


def rs_oracle(z, n):
    """Loop implementation of the two-pass rescaled range."""
    T = len(z)
    M = T // n

    def blocks(start):
        ratios = []
        for m in range(M):
            block = z[start + m * n : start + (m + 1) * n]
            mu = sum(block) / n
            S = math.sqrt(sum((v - mu) ** 2 for v in block) / n)
            x, acc = [], 0.0
            for v in block[:-1]:
                acc += v - mu
                x.append(acc)
            x.append(0.0)  # the full-block deviation sum, pinned
            ratios.append((max(x) - min(x)) / S)
        return ratios

    first = blocks(0)
    L = T - M * n
    second = blocks(L) if L else first
    return sum(first + second) / (2 * M)


def partition_oracle(p, n, q):
    """Loop implementation of the two-pass partition function."""
    T = len(p) - 1
    M = T // n

    def increments(start):
        return [abs(p[start + m * n] - p[start + (m - 1) * n])
                for m in range(1, M + 1)]

    v = increments(0)
    L = T - M * n
    v = v + (increments(L) if L else list(v))
    return 0.5 * sum(x ** q for x in v)


class TestTimeScaleGrid:
    def test_grid_at_1000(self):
        grid = time_scale_grid(1000)
        assert grid.scales == GRID_1000
        assert len(grid.scales) == 20

    def test_grid_at_100(self):
        assert time_scale_grid(100).scales == (5, 6, 7, 8, 9)

    @pytest.mark.parametrize("T", [50, 99])
    def test_too_short(self, T):
        with pytest.raises(TooShort):
            time_scale_grid(T)

    @given(st.integers(100, 50000))
    @settings(max_examples=60)
    def test_grid_invariants(self, T):
        grid = time_scale_grid(T)
        scales = np.array(grid.scales)
        assert len(scales) >= 3
        assert np.all(np.diff(scales) > 0)
        assert scales[0] >= 5
        assert scales[-1] <= 0.1 * T

    def test_custom_grid_validation(self):
        with pytest.raises(ValueError):
            ScaleGrid(1000, (5, 5, 7))
        with pytest.raises(ValueError):
            ScaleGrid(1000, (4, 8, 16))
        with pytest.raises(ValueError):
            ScaleGrid(1000, (5, 8, 200))
        with pytest.raises(TooShort):
            ScaleGrid(1000, (5, 8))


class TestQGrid:
    def test_presets(self):
        assert qgrid("fa1").values == tuple(round(0.1 * k, 10) for k in range(1, 11))
        assert qgrid("fa2").values[-1] == 3.0
        assert qgrid("fa3").values[0] == 0.5

    def test_rejects_nonpositive_or_unsorted(self):
        with pytest.raises(ValueError):
            QGrid("custom", (0.0, 1.0))
        with pytest.raises(ValueError):
            QGrid("custom", (2.0, 1.0))
        with pytest.raises(ValueError):
            qgrid("fa9")


class TestRsStatistic:
    def test_hand_computed_fixture(self):
        # blocks (1,2) and (1,2): mu=1.5, S=0.5, R=0.5, duplicated second pass
        assert rs_statistic(make_returns([1, 2, 1, 2]), 2) == pytest.approx(1.0)

    def test_constant_block_raises(self):
        with pytest.raises(ZeroDispersion):
            rs_statistic(make_returns([1.0] * 10), 5)

    def test_scale_out_of_range(self):
        with pytest.raises(ValueError):
            rs_statistic(make_returns([1.0, 2.0]), 3)

    def test_overflowing_dispersion_raises(self):
        # the squared deviations overflow, so S is inf and R/S would read 0
        with pytest.raises(NonFiniteValue):
            rs_statistic(make_returns([1e200, -1e200] * 5), 5)

    @given(st.lists(st.floats(-5, 5), min_size=6, max_size=40),
           st.integers(2, 6))
    @settings(max_examples=80)
    def test_matches_loop_oracle(self, values, n):
        if n > len(values):
            return
        r = make_returns(values)
        try:
            fast = rs_statistic(r, n)
        except ZeroDispersion:
            return
        assert fast == pytest.approx(rs_oracle(values, n), rel=1e-10)

    def test_ratio_bound(self, rng):
        # R_m/S_m cannot exceed 2*sqrt(n) for any block
        for _ in range(20):
            z = rng.standard_normal(60)
            for n in (2, 3, 5, 10):
                assert rs_statistic(make_returns(z), n) <= 2.0 * math.sqrt(n) + 1e-9

    def test_affine_invariance(self, rng):
        z = rng.standard_normal(100)
        base = rs_statistic(make_returns(z), 10)
        for a, b in ((2.0, 0.0), (-3.0, 1.5), (0.25, -7.0)):
            assert rs_statistic(make_returns(a * z + b), 10) == \
                pytest.approx(base, rel=1e-9)


class TestEstimateRra:
    def test_diagnostics_shape(self, rng):
        est = estimate_rra(make_returns(rng.standard_normal(1000)))
        assert est.method == "rra"
        assert est.n_points == 20
        assert est.residual_sse >= 0.0
        assert 0.0 < est.H < 1.0

    def test_affine_invariance(self, rng):
        z = rng.standard_normal(500)
        base = estimate_rra(make_returns(z))
        moved = estimate_rra(make_returns(-2.5 * z + 0.3))
        assert moved.H == pytest.approx(base.H, abs=1e-9)

    def test_short_series_propagates(self, rng):
        with pytest.raises(TooShort):
            estimate_rra(make_returns(rng.standard_normal(50)))

    def test_overflowing_dispersion_fails(self):
        # one block's dispersion overflows; the other blocks keep H finite
        # (0.557699), so only the flag fails the series
        x = generate(niid_spec(500)).values.copy()
        x[3] = 1e200
        with pytest.raises(NonFiniteValue):
            estimate_point("rra", make_returns(x))


class TestPartitionFunction:
    def test_constant_returns_fixture(self):
        # p = (0, c, 2c, 3c, 4c): v = (2c, 2c), duplicated -> 2*(2c)^q
        c = 0.7
        p = LogPricePath.from_returns(make_returns([c] * 4))
        for q in (0.5, 1.0, 2.0, 3.3):
            assert partition_function(p, 2, q) == pytest.approx(2 * (2 * c) ** q)

    def test_all_zero_increments(self):
        p = LogPricePath.from_returns(make_returns([0.0] * 8))
        with pytest.raises(AllZeroIncrements):
            partition_function(p, 2, 1.0)

    @given(st.lists(st.floats(-3, 3), min_size=4, max_size=30),
           st.integers(2, 5),
           st.floats(0.1, 4.0))
    @settings(max_examples=80)
    def test_matches_loop_oracle(self, values, n, q):
        if n > len(values):
            return
        p = LogPricePath.from_returns(make_returns(values))
        try:
            fast = partition_function(p, n, q)
        except AllZeroIncrements:
            return
        assert fast == pytest.approx(partition_oracle(list(p.values), n, q),
                                     rel=1e-10)

    def test_monotone_in_q(self, rng):
        # power sums are monotone in q when all increments sit on one side of 1
        big = LogPricePath.from_returns(make_returns(rng.uniform(1.5, 3.0, 24)))
        small = LogPricePath.from_returns(make_returns(rng.uniform(0.01, 0.2, 24)))
        qs = (0.5, 1.0, 2.0, 3.0)
        sb = [partition_function(big, 4, q) for q in qs]
        ss = [partition_function(small, 4, q) for q in qs]
        assert np.all(np.diff(sb) >= 0)
        assert np.all(np.diff(ss) <= 0)


class TestEstimateFa:
    def test_trend_has_unit_hurst(self):
        # scales dividing T keep the block count exact, making the fit exact
        r = make_returns([0.25] * 1024)
        est = estimate_fa(r, qgrid("fa1"), grid=ScaleGrid(1024, (8, 16, 32, 64)))
        assert est.H == pytest.approx(1.0, abs=1e-9)
        assert est.residual_sse == pytest.approx(0.0, abs=1e-12)

    def test_scale_invariance_and_intercept_shift(self, rng):
        z = rng.standard_normal(600)
        a = 3.5
        base = estimate_fa(make_returns(z), qgrid("fa2"))
        scaled = estimate_fa(make_returns(a * z), qgrid("fa2"))
        assert scaled.H == pytest.approx(base.H, abs=1e-9)
        shifts = np.array(scaled.intercepts) - np.array(base.intercepts)
        np.testing.assert_allclose(shifts, np.array(qgrid("fa2").values) * math.log(a),
                                   atol=1e-8)

    def test_zero_partition_aborts(self):
        with pytest.raises((ZeroPartition, AllZeroIncrements)):
            estimate_fa(make_returns([0.0] * 500), qgrid("fa1"))

    def test_diagnostics_shape(self, rng):
        est = estimate_fa(make_returns(rng.standard_normal(1000)), qgrid("fa3"))
        assert est.method == "fa:fa3"
        assert est.n_points == 10 * 20
        assert len(est.intercepts) == 10

    def test_estimates_near_half_for_white_noise(self, rng):
        z = rng.standard_normal(5000)
        assert estimate_fa(make_returns(z), qgrid("fa1")).H == \
            pytest.approx(0.5, abs=0.15)


class TestExchangeability:
    def test_reordered_long_memory_looks_like_white_noise(self):
        # R/S on a reordered series should match its distribution under
        # exchangeable data: compare against an NIID reference sample
        from selfaffine.simulate import arfima_spec, generate, niid_spec
        from selfaffine.timeseries import random_reorder

        ref = np.array([estimate_rra(generate(niid_spec(1000, seed=2000 + i))).H
                        for i in range(150)])
        shuffled = random_reorder(generate(arfima_spec(0.12, 1000, seed=5)), seed=3)
        h = estimate_rra(shuffled).H
        assert abs(h - ref.mean()) < 3.0 * ref.std(ddof=1)

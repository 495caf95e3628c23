import math
import re

import numpy as np
import pytest

import selfaffine.methods as methods
from selfaffine.errors import (
    AllReplicationsFailed,
    MissingCutoff,
    NonPositiveTail,
    TooFewValues,
)
from selfaffine.montecarlo import (
    CriticalValueTable,
    EstimateSample,
    build_critical_values,
    critical_values,
    load_table,
    power_function,
    run_replications,
    save_table,
    summarize_sample,
)
from selfaffine.rng import derive_seed
from selfaffine.simulate import ar_recursive_spec, generate, lstable_spec, niid_spec
from selfaffine.timeseries import ARModel, ReturnsSeries


def sample_from(values, method="rra", T=1000, failures=0):
    spec = niid_spec(T)
    return EstimateSample(method=method, spec=spec,
                          reps=len(values) + failures, master_seed=0,
                          values=np.asarray(values, dtype=float),
                          failures=failures)


class TestRunReplications:
    def test_single_rep_matches_direct_call(self):
        spec = niid_spec(256)
        got = run_replications(spec, "hill", 1, master_seed=7)
        sub = niid_spec(256, seed=derive_seed(7, 0))
        expected = methods.estimate_point("hill", generate(sub))
        assert got.values[0] == expected
        assert got.failures == 0

    def test_deterministic_across_worker_counts(self):
        spec = niid_spec(200)
        serial = run_replications(spec, "hill", 16, master_seed=3, workers=1)
        parallel = run_replications(spec, "hill", 16, master_seed=3, workers=2)
        np.testing.assert_array_equal(serial.values, parallel.values)

    def test_failures_recorded_not_fatal(self, monkeypatch):
        from types import SimpleNamespace

        def flaky(r):
            if float(r.values.sum()) > 0:
                raise NonPositiveTail("synthetic failure")
            return SimpleNamespace(value=0.5)

        monkeypatch.setitem(methods._REGISTRY, "flaky", flaky)
        out = run_replications(niid_spec(64), "flaky", 40, master_seed=11)
        assert out.failures > 0
        assert len(out.values) + out.failures == 40

    def test_all_failures_raises(self, monkeypatch):
        def broken(r):
            raise NonPositiveTail("always")

        monkeypatch.setitem(methods._REGISTRY, "broken", broken)
        with pytest.raises(AllReplicationsFailed):
            run_replications(niid_spec(64), "broken", 5, master_seed=1)


class TestSummaries:
    def test_mean_sd(self):
        assert summarize_sample(sample_from([1.0, 2.0, 3.0])) == (2.0, 1.0)

    def test_too_few(self):
        with pytest.raises(TooFewValues):
            summarize_sample(sample_from([1.0]))


class TestCriticalValues:
    def test_nearest_rank_on_integers(self):
        s = sample_from(np.arange(1.0, 1001.0))
        table = critical_values(s, levels=(0.10, 0.05, 0.01))
        assert table.cutoff(0.05) == 950.0
        assert table.cutoff(0.10) == 900.0
        assert table.cutoff(0.01) == 990.0

    def test_identical_values_identical_cutoffs(self):
        table = critical_values(sample_from([2.5] * 200))
        assert {c for _, c in table.cutoffs} == {2.5}

    def test_monotone_cutoffs(self):
        rng = np.random.default_rng(0)
        table = critical_values(sample_from(rng.standard_normal(500)))
        cuts = [c for _, c in table.cutoffs]
        assert cuts == sorted(cuts)

    def test_too_few_values(self):
        with pytest.raises(TooFewValues):
            critical_values(sample_from(np.arange(99.0)))

    def test_bad_level(self):
        with pytest.raises(ValueError):
            critical_values(sample_from(np.arange(200.0)), levels=(1.5,))

    def test_missing_cutoff_lookup(self):
        table = critical_values(sample_from(np.arange(200.0)), levels=(0.05,))
        with pytest.raises(MissingCutoff):
            table.cutoff(0.01)

    def test_table_records_the_run_master_seed(self):
        sample = run_replications(niid_spec(128), "hill", 150, master_seed=4)
        assert critical_values(sample).master_seed == 4

    def test_table_invariant_enforced(self):
        with pytest.raises(ValueError):
            CriticalValueTable(method="rra", T=100, mean=0.5, sd=0.1,
                               cutoffs=((0.10, 0.7), (0.05, 0.6)),
                               reps=100, master_seed=0)


class TestPower:
    def test_size_matches_level(self):
        # testing the null against its own cutoffs: rejection rate ~ level
        table = build_critical_values(niid_spec(256), "hill", 400, master_seed=5)
        result = power_function(niid_spec(256), "hill", table, reps=400,
                                master_seed=99, level=0.05)
        se = math.sqrt(0.05 * 0.95 / 400)
        assert abs(result.rejection_rate - 0.05) < 3 * se

    def test_table_mismatch(self):
        table = build_critical_values(niid_spec(256), "hill", 120, master_seed=5)
        with pytest.raises(ValueError):
            power_function(niid_spec(300), "hill", table, reps=10, master_seed=1)
        with pytest.raises(ValueError):
            power_function(niid_spec(256), "hr", table, reps=10, master_seed=1)

    def test_missing_level(self):
        table = build_critical_values(niid_spec(256), "hill", 120, master_seed=5,
                                      levels=(0.05,))
        with pytest.raises(MissingCutoff):
            power_function(niid_spec(256), "hill", table, reps=10,
                           master_seed=1, level=0.01)


class TestCache:
    def test_save_load_roundtrip(self, tmp_path):
        spec = niid_spec(128)
        table = build_critical_values(spec, "hill", 150, master_seed=4)
        path = save_table(table, spec, tmp_path)
        assert re.fullmatch(r"cv_hill_T128_[0-9a-f]{16}\.json", path.name)
        back = load_table(tmp_path, spec, "hill", 150, 4)
        assert back == table

    def test_load_missing_returns_none(self, tmp_path):
        assert load_table(tmp_path, niid_spec(1000), "rra", 100, 1) is None

    def test_build_uses_cache(self, tmp_path):
        first = build_critical_values(niid_spec(128), "hill", 150, master_seed=4,
                                      cache_dir=tmp_path)
        # corrupt-proof check: loading again returns the cached file contents
        again = build_critical_values(niid_spec(128), "hill", 150, master_seed=4,
                                      cache_dir=tmp_path)
        assert again == first
        assert len(list(tmp_path.glob("cv_hill_T128_*.json"))) == 1

    def test_null_model_is_part_of_the_key(self, tmp_path):
        build_critical_values(lstable_spec(1.5, 500), "hill", 200, 0, cache_dir=tmp_path)
        cached = build_critical_values(niid_spec(500), "hill", 200, 0, cache_dir=tmp_path)
        assert cached == build_critical_values(niid_spec(500), "hill", 200, 0)

    def test_ar_coefficients_keyed_at_full_precision(self, tmp_path):
        for phi in (0.3, 0.3 + 1e-12):
            model = ARModel(order=1, intercept=0.0, coefficients=np.array([phi]),
                            residual_sd=1.0)
            build_critical_values(ar_recursive_spec(model, 128), "hill", 100, 0,
                                  cache_dir=tmp_path)
        assert len(list(tmp_path.iterdir())) == 2

    def test_save_leaves_no_temp_file(self, tmp_path):
        spec = niid_spec(128)
        table = build_critical_values(spec, "hill", 150, master_seed=4)
        path = save_table(table, spec, tmp_path)
        assert list(tmp_path.iterdir()) == [path]

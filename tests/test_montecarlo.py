import json
import math
import re
import warnings

import numpy as np
import pytest

import selfaffine.methods as methods
import selfaffine.montecarlo as montecarlo
import selfaffine.simulate as simulate
from selfaffine.errors import (
    AllReplicationsFailed,
    ExplosiveModel,
    MissingCutoff,
    NonPositiveTail,
    TooFewValues,
    ZeroOrdinate,
)
from selfaffine.montecarlo import (
    CriticalValueTable,
    EstimateSample,
    build_critical_values,
    build_tables,
    critical_values,
    load_table,
    power_function,
    replicate,
    run_replications,
    save_table,
    summarize_sample,
)
from selfaffine.rng import derive_seed
from selfaffine.simulate import (
    ar_recursive_spec,
    arfima_spec,
    generate,
    lstable_spec,
    niid_spec,
)
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
        def flaky(X):
            return np.full(len(X), 0.5), {int(i): NonPositiveTail("synthetic failure")
                                          for i in np.flatnonzero(X.sum(axis=1) > 0)}

        monkeypatch.setitem(methods._REGISTRY, "flaky", flaky)
        out = run_replications(niid_spec(64), "flaky", 40, master_seed=11)
        assert out.failures > 0
        assert len(out.values) + out.failures == 40

    def test_all_failures_raises(self, monkeypatch):
        def broken(X):
            raise NonPositiveTail("always")

        monkeypatch.setitem(methods._REGISTRY, "broken", broken)
        with pytest.raises(AllReplicationsFailed):
            run_replications(niid_spec(64), "broken", 5, master_seed=1)

    def test_failures_counted_by_exception_type(self, monkeypatch):
        def mixed(X):
            errors = {int(i): NonPositiveTail("sum") for i in np.flatnonzero(X.sum(axis=1) > 0)}
            errors.update({int(i): ZeroOrdinate("first") for i in np.flatnonzero(X[:, 0] > 1)})
            return np.full(len(X), 0.5), errors

        monkeypatch.setitem(methods._REGISTRY, "mixed", mixed)
        out = run_replications(niid_spec(64), "mixed", 100, master_seed=11)
        assert set(out.failures_by_kind) == {"NonPositiveTail", "ZeroOrdinate"}
        assert sum(out.failures_by_kind.values()) == out.failures
        assert run_replications(niid_spec(128), "hill", 20, 11).failures_by_kind == {}

    def test_generation_failures_carry_their_type(self, monkeypatch):
        real = montecarlo.generate_block

        def picky(spec, seeds):
            X, errors = real(spec, seeds)
            errors.update({int(i): ExplosiveModel("synthetic")
                           for i in np.flatnonzero(X[:, 0] > 1.0)})
            return X, errors

        monkeypatch.setattr(montecarlo, "generate_block", picky)
        out = run_replications(niid_spec(128), "hill", 60, master_seed=3)
        assert out.failures > 0
        assert out.failures_by_kind == {"ExplosiveModel": out.failures}

    @pytest.mark.parametrize("spec, method", [
        (lstable_spec(0.05, 1000), "fa3"),  # finite series, overflowing estimates
        (lstable_spec(0.01, 500), "hill"),  # overflowing series
    ], ids=["estimate-overflows", "series-overflows"])
    def test_non_finite_rows_fail_alone(self, spec, method):
        out = run_replications(spec, method, 64, master_seed=0)
        assert 0 < out.failures < 64
        assert out.failures_by_kind == {"NonFiniteValue": out.failures}

    def test_overflowing_generation_prints_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = run_replications(lstable_spec(0.01, 500), "hill", 64, 0)
        assert out.failures_by_kind == {"NonFiniteValue": 29}

    def test_overflowing_estimate_prints_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = run_replications(lstable_spec(0.05, 1000), "fa3", 64, 0)
        assert out.failures_by_kind == {"NonFiniteValue": 35}

    def test_overflowing_dispersion_fails_the_row(self):
        # the failing rows are finite and their R/S averages stay finite, so
        # only the dispersion flag can fail them
        out = run_replications(lstable_spec(0.02, 500), "rra", 64, 0)
        assert out.failures_by_kind == {"NonFiniteValue": 20}


class TestEngineContract:
    """The replication engine's results do not depend on how rows are grouped."""

    @pytest.mark.parametrize("method", ["rra", "fa2", "robinson", "hill"])
    def test_identical_across_block_sizes_and_workers(self, monkeypatch, method):
        model = ARModel(order=2, intercept=0.0, coefficients=np.array([0.3, -0.2]),
                        residual_sd=1.0)
        specs, reps = (niid_spec(150), arfima_spec(0.2, 150), ar_recursive_spec(model, 150)), 20
        references = [run_replications(spec, method, reps, master_seed=2) for spec in specs]
        for block_rows in (1, 7, reps):
            monkeypatch.setattr(montecarlo, "_BLOCK_ROWS", block_rows)
            for workers in (1, 2):
                for spec, reference in zip(specs, references):
                    got = run_replications(spec, method, reps, 2, workers=workers)
                    assert got.values.tobytes() == reference.values.tobytes()
                    assert got.failures_by_kind == reference.failures_by_kind

    def test_multi_method_run_equals_one_method_runs(self):
        model = ARModel(order=1, intercept=0.0, coefficients=np.array([0.3]),
                        residual_sd=1.0)
        spec = ar_recursive_spec(model, 130)
        together = replicate(spec, methods.METHODS, 70, master_seed=9)
        assert list(together) == list(methods.METHODS)
        for method in methods.METHODS:
            alone = run_replications(spec, method, 70, 9)
            assert together[method].values.tobytes() == alone.values.tobytes()
            assert together[method].failures_by_kind == alone.failures_by_kind

    def test_build_tables_simulates_only_the_uncached_methods(self, tmp_path, monkeypatch):
        spec = niid_spec(128)
        build_critical_values(spec, "hill", 120, 4, cache_dir=tmp_path)
        passes = []
        real = montecarlo.replicate

        def recording(spec, methods, *args, **kwargs):
            passes.append(tuple(methods))
            return real(spec, methods, *args, **kwargs)

        monkeypatch.setattr(montecarlo, "replicate", recording)
        tables = build_tables(spec, ("hill", "hr", "pickands"), 120, 4, cache_dir=tmp_path)
        assert passes == [("hr", "pickands")]
        assert list(tables) == ["hill", "hr", "pickands"]
        monkeypatch.setattr(montecarlo, "replicate", real)
        for method, table in tables.items():
            assert table == build_critical_values(spec, method, 120, 4)

    def test_cache_keeps_the_union_of_levels(self, tmp_path, monkeypatch):
        calls = []
        real = montecarlo.replicate

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "replicate", counting)
        spec = niid_spec(128)
        default = build_critical_values(spec, "hill", 120, 5, cache_dir=tmp_path)
        narrow = build_critical_values(spec, "hill", 120, 5, levels=(0.02,), cache_dir=tmp_path)
        again = build_critical_values(spec, "hill", 120, 5, cache_dir=tmp_path)
        assert len(calls) == 2
        assert narrow.levels == (0.02,)
        assert again == default
        stored = load_table(tmp_path, spec, "hill", 120, 5)
        assert stored.levels == (0.10, 0.05, 0.02, 0.01)


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

    def test_lookup_keys_on_the_spec_without_rebuilding_it(self, tmp_path, monkeypatch):
        # the name the key has always given this spec: files already cached stay valid
        spec = ar_recursive_spec(ARModel(1, 0.0, [0.3], 1.0), 128)
        build_critical_values(spec, "hill", 100, 0, cache_dir=tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["cv_hill_T128_6685bea351665f16.json"]
        checks = []
        real = simulate._check_stationary
        monkeypatch.setattr(simulate, "_check_stationary",
                            lambda model: checks.append(model) or real(model))
        build_critical_values(spec, "hill", 100, 0, cache_dir=tmp_path)
        assert checks == []

    def test_int_and_float_spellings_share_one_file(self, tmp_path):
        # the float spelling keeps the file name it had before specs coerced
        for alpha in (2, 2.0):
            build_critical_values(lstable_spec(alpha, 500), "hill", 200, 0,
                                  cache_dir=tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["cv_hill_T500_f5e4159679d4db1f.json"]

    def test_failures_by_kind_round_trip(self, tmp_path, monkeypatch):
        def flaky(X):
            return X.mean(axis=1), {int(i): NonPositiveTail("synthetic failure")
                                    for i in np.flatnonzero(X[:, 0] > 1.0)}

        monkeypatch.setitem(methods._REGISTRY, "flaky", flaky)
        spec = niid_spec(128)
        cold = build_critical_values(spec, "flaky", 150, 4, cache_dir=tmp_path)
        assert cold.failures > 0
        assert cold.failures_by_kind == {"NonPositiveTail": cold.failures}
        assert load_table(tmp_path, spec, "flaky", 150, 4).failures_by_kind == \
            cold.failures_by_kind

        def no_simulation(*args, **kwargs):
            raise AssertionError("a cached table was simulated again")

        monkeypatch.setattr(montecarlo, "replicate", no_simulation)
        assert build_critical_values(spec, "flaky", 150, 4, cache_dir=tmp_path) == cold

    @pytest.mark.parametrize("failures", [0, 3])
    def test_file_without_failures_by_kind(self, tmp_path, caplog, failures):
        spec = niid_spec(128)
        by_kind = {"NonPositiveTail": failures} if failures else {}
        table = CriticalValueTable(method="hill", T=128, mean=0.2, sd=0.05,
                                   cutoffs=((0.05, 0.3),), reps=150, master_seed=4,
                                   failures=failures, failures_by_kind=by_kind)
        path = save_table(table, spec, tmp_path)
        fields = json.loads(path.read_text())
        del fields["failures_by_kind"]
        path.write_text(json.dumps(fields))
        back = load_table(tmp_path, spec, "hill", 150, 4)
        if failures:  # its failures cannot be told apart by kind: simulate again
            assert back is None
            assert path.name in caplog.text
        else:
            assert back == table and back.failures_by_kind == {}

    def test_save_leaves_no_temp_file(self, tmp_path):
        spec = niid_spec(128)
        table = build_critical_values(spec, "hill", 150, master_seed=4)
        path = save_table(table, spec, tmp_path)
        assert list(tmp_path.iterdir()) == [path]

import concurrent.futures
import json
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

import selfaffine.methods as methods
import selfaffine.montecarlo as montecarlo
import selfaffine.simulate as simulate
from selfaffine.analysis import AnalyzeConfig, analyze_index
from selfaffine.errors import (
    AllReplicationsFailed,
    ExplosiveModel,
    NonPositiveTail,
    TooFewValues,
    ZeroOrdinate,
)
from selfaffine.cli import run_cli
from selfaffine.montecarlo import (
    CriticalValueTable,
    build_critical_values,
    build_tables,
    check_levels,
    critical_values,
    load_table,
    power_function,
    replicate,
    run_replications,
    save_table,
)
from selfaffine.rng import derive_seed
from selfaffine.simulate import (
    ar_recursive_spec,
    arfima_spec,
    generate,
    lstable_spec,
    niid_spec,
)
from selfaffine.timeseries import ARModel, PriceSeries, ReturnsSeries


def line_free(values, errors):
    """An injected kernel's result: its values and errors, and no line."""
    return methods.BlockFit(values, errors, np.full(len(values), np.nan), 0)


def sample_from(values, method="rra", T=1000):
    values = np.asarray(values, dtype=float)
    return montecarlo._table(method, T, len(values), 0, values, {})


class TestRunReplications:
    def test_single_rep_matches_direct_call(self):
        spec = niid_spec(256)
        got = run_replications(spec, "hill", 1, master_seed=7)
        sub = niid_spec(256, seed=derive_seed(7, 0))
        expected = methods.estimate_point("hill", generate(sub))
        assert got.sample[0] == expected
        assert got.failures == 0

    def test_deterministic_across_worker_counts(self):
        spec = niid_spec(200)
        serial = run_replications(spec, "hill", 16, master_seed=3, workers=1)
        parallel = run_replications(spec, "hill", 16, master_seed=3, workers=2)
        assert serial == parallel

    def test_failures_recorded_not_fatal(self, monkeypatch):
        def flaky(X, methods):
            return [line_free(np.full(len(X), 0.5), {int(i): NonPositiveTail("synthetic failure")
                                                     for i in np.flatnonzero(X.sum(axis=1) > 0)})]

        monkeypatch.setitem(methods._REGISTRY, "flaky", flaky)
        out = run_replications(niid_spec(64), "flaky", 40, master_seed=11)
        assert out.failures > 0
        assert len(out.sample) + out.failures == 40

    def test_all_failures_raises(self, monkeypatch):
        def broken(X, methods):
            raise NonPositiveTail("always")

        monkeypatch.setitem(methods._REGISTRY, "broken", broken)
        with pytest.raises(AllReplicationsFailed):
            run_replications(niid_spec(64), "broken", 5, master_seed=1)

    def test_failures_counted_by_exception_type(self, monkeypatch):
        def mixed(X, methods):
            errors = {int(i): NonPositiveTail("sum") for i in np.flatnonzero(X.sum(axis=1) > 0)}
            errors.update({int(i): ZeroOrdinate("first") for i in np.flatnonzero(X[:, 0] > 1)})
            return [line_free(np.full(len(X), 0.5), errors)]

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
        # the AR rows are generated in chunks of up to its chunk_rows and
        # estimated _block_rows(T) at a time, chunks that need not be whole blocks
        for ar_rows, block_rows in ((1, 1), (7, 3), (reps, 7), (7, reps), (3, reps)):
            monkeypatch.setattr(simulate.ARRecursiveSpec, "chunk_rows", ar_rows)
            monkeypatch.setattr(montecarlo, "_block_rows", lambda T, rows=block_rows: rows)
            for workers in (1, 2):
                for spec, reference in zip(specs, references):
                    assert run_replications(spec, method, reps, 2, workers=workers) == reference

    def test_failures_keep_their_rows_in_any_chunk(self, monkeypatch):
        # a row's estimate is its first value, so a failure charged to the
        # wrong row of a chunk deletes the wrong estimate
        def marked(X, methods):
            return [line_free(X[:, 0].copy(), {int(i): NonPositiveTail("sum")
                                               for i in np.flatnonzero(X.sum(axis=1) > 0)})]

        monkeypatch.setitem(methods._REGISTRY, "marked", marked)
        model = ARModel(order=1, intercept=0.0, coefficients=np.array([0.3]), residual_sd=1.0)
        spec, reps = ar_recursive_spec(model, 60), 20
        rows = [generate(ar_recursive_spec(model, 60, seed=derive_seed(2, i))).values
                for i in range(reps)]
        want = [x[0] for x in rows if not x.sum() > 0]
        assert 0 < len(want) < reps
        for ar_rows, block_rows in ((reps, reps), (7, 3), (3, 7)):
            monkeypatch.setattr(simulate.ARRecursiveSpec, "chunk_rows", ar_rows)
            monkeypatch.setattr(montecarlo, "_block_rows", lambda T, rows=block_rows: rows)
            assert run_replications(spec, "marked", reps, 2) == montecarlo._table(
                "marked", 60, reps, 2, np.array(want), {"NonPositiveTail": reps - len(want)})

    def test_only_ar_rows_are_generated_in_tall_chunks(self, monkeypatch):
        heights = []
        real = montecarlo.generate_block

        def recording(spec, seeds):
            heights.append(len(seeds))
            return real(spec, seeds)

        monkeypatch.setattr(montecarlo, "generate_block", recording)
        # other models' chunks hold at most a block, here of 64 rows
        monkeypatch.setattr(montecarlo, "_block_rows", lambda T: 64)
        model = ARModel(order=1, intercept=0.0, coefficients=np.array([0.3]), residual_sd=1.0)
        for spec, want in ((ar_recursive_spec(model, 100), [150, 150]),
                           (arfima_spec(0.2, 100), [60] * 5)):
            heights.clear()
            replicate(spec, ("hill",), 300, 1)
            assert heights == want

    def test_a_block_holds_about_2_16_values(self):
        # 128 rows at analyze's T=383 and 64 at T=2000, where 128 rows
        # (2 MiB) ran `rra` 37% slower per row
        assert (montecarlo._block_rows(383), montecarlo._block_rows(2000)) == (128, 64)
        for T in range(1, 3000):
            rows = montecarlo._block_rows(T)
            assert rows % 64 == 0 and (rows == 64 or rows * T <= 2 ** 16)
            assert (rows + 64) * T > 2 ** 16
        # three blocks' rows, split near-equally into two chunks per worker
        assert montecarlo._chunks(niid_spec(383), 300, 2) == [(0, 75), (75, 150), (150, 225),
                                                              (225, 300)]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("reps", [1, 2, 100, 200, 256, 257, 300, 1000])
    def test_ar_chunks_give_every_worker_as_many_rows(self, reps, workers):
        # an AR null at reps 200 and workers 2 runs on both workers, in two
        # chunks of 100 rows
        model = ARModel(order=1, intercept=0.0, coefficients=np.array([0.3]), residual_sd=1.0)
        chunks = montecarlo._chunks(ar_recursive_spec(model, 100), reps, workers)
        heights = [hi - lo for lo, hi in chunks]
        assert [lo for lo, _ in chunks] == [0] + [hi for _, hi in chunks[:-1]]
        assert chunks[-1][1] == reps
        ar_rows = simulate.ARRecursiveSpec.chunk_rows
        assert max(heights) <= ar_rows and max(heights) - min(heights) <= 1
        assert heights == sorted(heights, reverse=True)  # a freed chunk holds the next
        if reps >= workers:  # as many chunks for each worker, and no more than that needs
            assert len(chunks) % workers == 0
            assert len(chunks) < -(-reps // ar_rows) + workers

    @pytest.fixture
    def in_process_pool(self, monkeypatch):
        """The process counts that replicate asks its pool for, on two CPUs,
        while the chunks run in this process."""
        asked = []

        class InProcessPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        # replicate imports the pool class when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        return asked

    def test_no_more_worker_processes_than_chunks(self, monkeypatch, in_process_pool):
        monkeypatch.setattr(montecarlo, "_block_rows", lambda T: 64)  # chunks of 64 rows
        spec = niid_spec(128)
        for reps, workers, want in ((100, 8, [2]), (64, 4, [2]), (1, 2, [])):
            in_process_pool.clear()
            got = replicate(spec, ("hill", "rra"), reps, 5, workers=workers)
            assert in_process_pool == want
            assert got == replicate(spec, ("hill", "rra"), reps, 5)

    def test_no_more_worker_processes_than_cpus(self, monkeypatch, in_process_pool):
        # a thousand workers would split the AR null into one-row chunks
        heights = []
        real = montecarlo.generate_block

        def recording(spec, seeds):
            heights.append(len(seeds))
            return real(spec, seeds)

        monkeypatch.setattr(montecarlo, "generate_block", recording)
        model = ARModel(order=1, intercept=0.0, coefficients=np.array([0.3]), residual_sd=1.0)
        spec = ar_recursive_spec(model, 100)
        got = replicate(spec, ("hill", "rra"), 100, 5, workers=1000)
        assert in_process_pool == [2] and heights == [50, 50]
        assert got == replicate(spec, ("hill", "rra"), 100, 5)

    def test_multi_method_run_equals_one_method_runs(self):
        model = ARModel(order=1, intercept=0.0, coefficients=np.array([0.3]),
                        residual_sd=1.0)
        spec = ar_recursive_spec(model, 130)
        # the FA methods of a request share one pass over their q grids
        for subset in (methods.METHODS, ("fa3", "fa1"), ("fa2",), ("rra", "fa1", "fa2", "fa3")):
            together = replicate(spec, subset, 70, master_seed=9)
            assert list(together) == list(subset)
            for method in subset:
                assert together[method] == run_replications(spec, method, 70, 9)

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

    def test_cache_serves_a_level_it_was_not_built_at(self, tmp_path, monkeypatch):
        def cli(command, name, *args):
            assert run_cli([command, "--method", "hill", "-T", "128", "--seed", "5",
                            "--out", str(tmp_path / name), *args]) == 0
            return (tmp_path / name).read_bytes()

        def power(name, *cache):
            return cli("power", name, "--model", "arfima", "--d", "0.3", "--reps", "60",
                       "--null-reps", "120", "--level", "0.02", *cache)

        fresh = build_critical_values(niid_spec(128), "hill", 120, 5)
        fresh_power = power("fresh.csv")
        cli("critvals", "cv.csv", "--reps", "120", "--cache-dir", str(tmp_path / "cache"))
        real = montecarlo.replicate

        def no_null_simulation(spec, methods, reps, master_seed, **kwargs):
            # power simulates its alternative under master seed 6
            if master_seed == 5:
                raise AssertionError("the cached null table was simulated again")
            return real(spec, methods, reps, master_seed, **kwargs)

        monkeypatch.setattr(montecarlo, "replicate", no_null_simulation)
        assert build_critical_values(niid_spec(128), "hill", 120, 5,
                                     cache_dir=tmp_path / "cache") == fresh
        assert power("warm.csv", "--cache-dir", str(tmp_path / "cache")) == fresh_power


class TestSummaries:
    def test_mean_sd(self):
        table = sample_from([1.0, 2.0, 3.0])
        assert (table.mean, table.sd) == (2.0, 1.0)

    def test_one_success_has_nan_sd(self):
        # pytest turns numpy's ddof warning into an error
        assert math.isnan(run_replications(niid_spec(256), "hill", 1, 7).sd)


class TestCriticalValues:
    def test_nearest_rank_on_integers(self):
        s = sample_from(np.arange(1.0, 1001.0))
        table = critical_values(s)
        assert table.cutoffs == ((0.10, 900.0), (0.05, 950.0), (0.01, 990.0))

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
        for levels in ((1.5,), (0.05, 1.5), (0.05, 0.05), (0.0,), (1.0, 0.05)):
            with pytest.raises(ValueError):
                check_levels(levels)

    def test_check_levels_sorts_largest_first(self):
        assert check_levels((0.01, 0.1, 0.05)) == (0.1, 0.05, 0.01)

    @pytest.mark.parametrize("reps, levels, workers, error",
                             [(2000, (0.05, 1.5), 1, ValueError),
                              (99, (0.05,), 1, TooFewValues),
                              (2000, (0.05, 0.05), 1, ValueError),
                              (2000, (0.05,), 0, ValueError)],
                             ids=["bad-level", "too-few-reps", "repeated-level", "no-workers"])
    def test_build_tables_checks_before_simulating(self, tmp_path, monkeypatch,
                                                   reps, levels, workers, error):
        # levels belong to the request: the analysis that asks build_tables for its
        # null tables checks them, and build_tables checks reps and workers, before
        # any simulation
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the arguments were checked")

        monkeypatch.setattr(montecarlo, "replicate", no_simulation)
        steps = np.random.default_rng(3).standard_normal(600) * 0.01
        prices = PriceSeries(100.0 * np.exp(np.cumsum(steps)))
        with pytest.raises(error):
            analyze_index(prices, AnalyzeConfig(reps=reps, levels=levels, workers=workers,
                                                cache_dir=str(tmp_path)))

    def test_missing_cutoff_lookup(self):
        table = critical_values(sample_from(np.random.default_rng(1).standard_normal(200)))
        assert table.cutoff(0.02) == table.sample[195]
        for level in (0.0, 1.0, 1.5, -0.05):
            with pytest.raises(ValueError):
                table.cutoff(level)

    def test_table_records_the_run_master_seed(self):
        sample = run_replications(niid_spec(128), "hill", 150, master_seed=4)
        assert critical_values(sample).master_seed == 4

    def test_table_invariant_enforced(self):
        with pytest.raises(ValueError):
            CriticalValueTable(method="rra", T=100, mean=0.5, sd=-0.1,
                               null=np.linspace(0.0, 1.0, 100).tobytes(),
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
        # a level outside DEFAULT_LEVELS is served from the same table
        table = build_critical_values(niid_spec(256), "hill", 120, master_seed=5)
        result = power_function(niid_spec(256), "hill", table, reps=10, master_seed=1,
                                level=0.02)
        run = run_replications(niid_spec(256), "hill", 10, 1)
        assert result.rejection_rate == np.mean(run.sample > table.cutoff(0.02))
        with pytest.raises(ValueError):
            power_function(niid_spec(256), "hill", table, reps=10, master_seed=1, level=1.5)


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
        # the name the schema-3 key gives this spec: files already cached stay valid
        spec = ar_recursive_spec(ARModel(1, 0.0, [0.3], 1.0), 128)
        build_critical_values(spec, "hill", 100, 0, cache_dir=tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["cv_hill_T128_39878b42e8e5cfdd.json"]
        checks = []
        real = simulate._check_stationary
        monkeypatch.setattr(simulate, "_check_stationary",
                            lambda model: checks.append(model) or real(model))
        build_critical_values(spec, "hill", 100, 0, cache_dir=tmp_path)
        assert checks == []

    def test_int_and_float_spellings_share_one_file(self, tmp_path):
        # both spellings key as the float, under the schema-3 key
        for alpha in (2, 2.0):
            build_critical_values(lstable_spec(alpha, 500), "hill", 200, 0,
                                  cache_dir=tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["cv_hill_T500_1cb77a935c398327.json"]

    def test_a_new_model_leaves_the_other_models_keys_alone(self, tmp_path, monkeypatch):
        @dataclass(frozen=True)
        class ConstantSpec(simulate.SimulationSpec):
            model = "constant"
            level: float
            T: int
            seed: int = 0

            def _fill(self, rngs, out):
                out[:] = self.level + np.arange(self.T)

        monkeypatch.setitem(simulate.MODELS, ConstantSpec.model, ConstantSpec)
        specs = (niid_spec(128), ar_recursive_spec(ARModel(1, 0.0, [0.3], 1.0), 128),
                 ConstantSpec(1, 128))
        for spec in specs:
            build_critical_values(spec, "hill", 100, 0, cache_dir=tmp_path)
        names = {p.name for p in tmp_path.iterdir()}
        # the NIID and AR-recursive names are those the key gives without the new model
        assert len(names) == 3 and {"cv_hill_T128_dc250a28515d2804.json",
                                    "cv_hill_T128_39878b42e8e5cfdd.json"} < names

    def test_failures_by_kind_round_trip(self, tmp_path, monkeypatch):
        def flaky(X, methods):
            return [line_free(X.mean(axis=1), {int(i): NonPositiveTail("synthetic failure")
                                               for i in np.flatnonzero(X[:, 0] > 1.0)})]

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
                                   null=np.linspace(0.1, 0.3, 150 - failures).tobytes(),
                                   reps=150, master_seed=4,
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

    def test_file_holds_the_readme_fields(self, tmp_path):
        # the format files already cached were written in, so they still load
        spec = niid_spec(128)
        table = build_critical_values(spec, "hill", 150, master_seed=4)
        path = save_table(table, spec, tmp_path)
        assert sorted(json.loads(path.read_text())) == sorted(
            ["method", "T", "mean", "sd", "null", "reps", "master_seed", "failures",
             "failures_by_kind"])
        assert load_table(tmp_path, spec, "hill", 150, 4) == table

    def test_save_leaves_no_temp_file(self, tmp_path):
        spec = niid_spec(128)
        table = build_critical_values(spec, "hill", 150, master_seed=4)
        path = save_table(table, spec, tmp_path)
        assert list(tmp_path.iterdir()) == [path]

import base64
import csv
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import selfaffine
import selfaffine.montecarlo as montecarlo
from selfaffine.analysis import AnalyzeConfig
from selfaffine.cli import run_cli
from selfaffine.montecarlo import replicate
from selfaffine.simulate import ar_recursive_spec, generate, niid_spec
from selfaffine.timeseries import ARModel, read_values_csv, write_values_csv

DATA = Path(__file__).parent / "data"


def test_simulate_then_estimate_roundtrip(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    assert run_cli(["simulate", "--model", "arfima", "--d", "0.2", "-T", "500",
                    "--seed", "3", "--out", str(out)]) == 0
    assert len(read_values_csv(out)) == 500

    est = tmp_path / "est.csv"
    assert run_cli(["estimate", "--method", "rra", "--input", str(out),
                    "--out", str(est)]) == 0
    rows = list(csv.reader(est.open()))
    assert rows[0] == ["method", "H_or_d", "intercept", "n_points"]
    assert rows[1][0] == "rra"
    assert 0.4 < float(rows[1][1]) < 1.0


#: `estimate` rows for NIID T=400 seed 8: value, intercept of the regression
#: line (a(q_1) for FA, none for the tail methods) and its point count
ESTIMATE_ROWS = {
    "rra": "0.633980,-0.365809,14",
    "fa1": "0.448823,5.931423,140",
    "fa2": "0.456702,5.858422,140",
    "fa3": "0.476531,5.795930,140",
    "gph": "-0.040495,-2.001942,20",
    "robinson": "0.047299,-2.315310,199",
    "pickands": "-0.971213,,20",
    "hill": "0.185840,,20",
    "hr": "0.206706,,20",
}


@pytest.mark.parametrize("method", ESTIMATE_ROWS)
def test_estimate_every_method(tmp_path, method):
    out = tmp_path / "sim.csv"
    run_cli(["simulate", "--model", "niid", "-T", "400", "--seed", "8",
             "--out", str(out)])
    est = tmp_path / "est.csv"
    assert run_cli(["estimate", "--method", method, "--input", str(out),
                    "--out", str(est)]) == 0
    rows = list(csv.reader(est.open()))
    assert rows[1] == [method, *ESTIMATE_ROWS[method].split(",")]


def test_estimate_overflow_is_a_quiet_data_error(tmp_path):
    # fa3 raises the outlier to the power 5; numpy's overflow warning is not
    # printed, the typed error is
    x = generate(niid_spec(500)).values.copy()
    x[3] = 1e200
    write_values_csv(tmp_path / "outlier.csv", x)
    env = dict(os.environ, PYTHONPATH=str(Path(selfaffine.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "selfaffine.cli", "estimate", "--method", "fa3",
         "--input", str(tmp_path / "outlier.csv")], env=env, capture_output=True, text=True)
    assert done.returncode == 2
    assert "NonFiniteValue" in done.stderr
    assert "RuntimeWarning" not in done.stderr


def test_simulate_lstable_and_ar(tmp_path):
    out = tmp_path / "l.csv"
    assert run_cli(["simulate", "--model", "lstable", "--alpha", "1.7",
                    "-T", "200", "--seed", "1", "--out", str(out)]) == 0
    assert run_cli(["simulate", "--model", "ar-recursive",
                    "--ar-coefficients", "0.4,0.1", "--ar-sd", "0.8",
                    "-T", "200", "--seed", "1", "--out", str(out)]) == 0
    assert run_cli(["simulate", "--model", "student-t", "--df", "10",
                    "-T", "200", "--seed", "1", "--out", str(out)]) == 0


def test_simulate_negative_truncation_is_a_data_error(tmp_path, capsys):
    # d = 0 never reads the truncation, so only the spec can reject it
    out = tmp_path / "sim.csv"
    assert run_cli(["simulate", "--model", "arfima", "--d", "0", "-T", "50",
                    "--truncation", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: truncation must be non-negative"]
    assert not out.exists()


def test_critvals_writes_table(tmp_path):
    out = tmp_path / "cv.csv"
    assert run_cli(["critvals", "--method", "hill", "-T", "128",
                    "--reps", "120", "--seed", "5", "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0][:5] == ["method", "T", "reps", "mean", "sd"]
    cuts = [float(v) for v in rows[1][5:]]
    assert cuts == sorted(cuts)


def test_critvals_cache(tmp_path):
    cache = tmp_path / "cache"
    args = ["critvals", "--method", "hill", "-T", "128", "--reps", "120",
            "--seed", "5", "--cache-dir", str(cache),
            "--out", str(tmp_path / "cv.csv")]
    assert run_cli(args) == 0
    assert len(list(cache.glob("cv_hill_T128_*.json"))) == 1
    assert run_cli(args) == 0  # second run served from cache


def test_critvals_cache_serves_the_requested_levels(tmp_path):
    def critvals(name, cache, *levels):
        out = tmp_path / f"{name}.csv"
        assert run_cli(["critvals", "--method", "hill", "-T", "128", "--reps", "120",
                        "--seed", "5", "--cache-dir", str(cache), "--out", str(out),
                        *levels]) == 0
        return out.read_bytes()

    cold = critvals("cold", tmp_path / "a", "--levels", "0.05")
    critvals("full", tmp_path / "b")
    assert critvals("warm", tmp_path / "b", "--levels", "0.05") == cold
    assert cold.decode().splitlines()[0].split(",")[-1] == "cutoff_0.05"
    assert len(list((tmp_path / "b").iterdir())) == 1  # the 3-level file served it


def _resample(change):
    """A damage that replaces a cache file's null sample by `change(sample)` bytes."""
    def damage(fields):
        null = np.frombuffer(base64.b64decode(fields["null"]), dtype="<f8")
        return {**fields, "null": base64.b64encode(change(null)).decode()}
    return damage


@pytest.mark.parametrize("damage", [
    "truncated", "foreign",
    pytest.param(lambda f: {**f, "failures_by_kind": None}, id="kinds-null"),
    pytest.param(lambda f: {**f, "failures_by_kind": [1]}, id="kinds-list"),
    pytest.param(lambda f: {**f, "failures_by_kind": "none"}, id="kinds-string"),
    pytest.param(lambda f: {**f, "null": "not base64!"}, id="null-not-base64"),
    pytest.param(_resample(lambda v: v.tobytes()[:-3]), id="null-ragged"),
    pytest.param(_resample(lambda v: v[:-1].tobytes()), id="null-short"),
    pytest.param(_resample(lambda v: np.append(v[:-1], np.inf).tobytes()), id="null-inf"),
    pytest.param(_resample(lambda v: v[::-1].tobytes()), id="null-unsorted"),
    pytest.param(lambda f: {**f, "null": "", "failures": 120,
                            "failures_by_kind": {"ZeroDispersion": 120}}, id="null-empty"),
    pytest.param(lambda f: {**{k: v for k, v in f.items() if k != "null"},
                            "cutoffs": [[0.1, 0.2], [0.05, 0.25], [0.01, 0.3]]},
                 id="cutoffs-only")])
def test_critvals_bad_cache_file_is_a_miss(tmp_path, damage, capsys):
    def critvals(seed, cache):
        out = tmp_path / f"cv_{seed}_{cache.name}.csv"
        assert run_cli(["critvals", "--method", "hill", "-T", "128", "--reps", "120",
                        "--seed", str(seed), "--cache-dir", str(cache),
                        "--out", str(out)]) == 0
        return out.read_bytes()

    fresh = critvals(5, tmp_path / "a")
    [path] = (tmp_path / "a").iterdir()
    good = path.read_bytes()
    if damage == "truncated":
        path.write_bytes(good[:len(good) // 2])
    elif damage == "foreign":  # another request's table under this request's name
        critvals(6, tmp_path / "b")
        [other] = (tmp_path / "b").iterdir()
        path.write_bytes(other.read_bytes())
    else:
        path.write_text(json.dumps(damage(json.loads(good))))
    capsys.readouterr()
    assert critvals(5, tmp_path / "a") == fresh
    assert path.read_bytes() == good
    err = capsys.readouterr().err
    assert "WARNING" in err and path.name in err


@pytest.mark.parametrize("argv", [
    ["critvals", "--method", "hill", "-T", "128", "--reps", "120", "--levels", "0.05,0.05"],
    ["power", "--method", "hill", "-T", "128", "--model", "arfima", "--d", "0.3",
     "--reps", "60", "--null-reps", "120", "--level", "1.5"],
    ["analyze", "--input", str(DATA / "prices_demo.csv"), "--reps", "120",
     "--levels", "0.05,1.5"]],
    ids=["critvals-repeated-level", "power-level-out-of-range", "analyze-level-out-of-range"])
def test_bad_level_is_a_data_error_before_simulating(tmp_path, monkeypatch, capsys, argv):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the levels were checked")

    monkeypatch.setattr(montecarlo, "replicate", no_simulation)
    out = "--out-dir" if argv[0] == "analyze" else "--out"
    assert run_cli([*argv, "--cache-dir", str(tmp_path), out, str(tmp_path / "out")]) == 2
    assert "level" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_all_replications_failed_names_the_cause(capsys):
    # T=50 is below the R/S grid's T >= 100, so every row fails with TooShort
    assert run_cli(["critvals", "--method", "rra", "-T", "50", "--reps", "200"]) == 2
    assert capsys.readouterr().err == ("error: AllReplicationsFailed: all 200 replications "
                                       "of rra failed (TooShort: 200)\n")


def test_power_explosive_ar_model_is_a_data_error(capsys):
    assert run_cli(["power", "--model", "ar-recursive", "--ar-coefficients", "1.2",
                    "-T", "200", "--method", "hill", "--reps", "130",
                    "--null-reps", "130"]) == 2
    assert "ExplosiveModel" in capsys.readouterr().err


def test_power_command(tmp_path):
    out = tmp_path / "p.csv"
    assert run_cli(["power", "--model", "arfima", "--d", "0.3", "-T", "256",
                    "--method", "hill", "--reps", "60", "--null-reps", "120",
                    "--seed", "2", "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0][0] == "method"
    assert rows[1] == ["hill", "arfima", "256", "0.05", "0.0833", "60", "0"]


def test_analyze_happy_path(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    code = run_cli(["analyze", "--input", str(DATA / "prices_demo.csv"),
                    "--reps", "110", "--seed", "4", "--out-dir", str(out_dir),
                    "--json"])
    assert code == 0
    assert (out_dir / "prices_demo_report.csv").exists()
    assert (out_dir / "prices_demo_report.json").exists()
    printed = capsys.readouterr().out
    assert "classification:" in printed


def test_analyze_cache_serves_the_requested_levels(tmp_path, capsys):
    def analyze(cache, *levels):
        out_dir = tmp_path / "reports"
        assert run_cli(["analyze", "--input", str(DATA / "prices_demo.csv"),
                        "--reps", "120", "--seed", "3", "--cache-dir", str(cache),
                        "--out-dir", str(out_dir), "--json", *levels]) == 0
        return (capsys.readouterr().out,
                (out_dir / "prices_demo_report.csv").read_bytes(),
                (out_dir / "prices_demo_report.json").read_bytes())

    cold = analyze(tmp_path / "a", "--levels", "0.05")
    analyze(tmp_path / "b")  # fills the cache at the default three levels
    assert analyze(tmp_path / "b", "--levels", "0.05") == cold


def test_analyze_columns_follow_the_levels_largest_first(tmp_path, capsys):
    assert AnalyzeConfig(levels=(0.01, 0.05, 0.10)).levels == (0.10, 0.05, 0.01)
    assert run_cli(["analyze", "--input", str(DATA / "prices_demo.csv"), "--reps", "100",
                    "--levels", "0.01,0.05,0.10", "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "prices_demo_report.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header[5:11] == ["cutoff_10", "cutoff_05", "cutoff_01",
                            "reject_10", "reject_05", "reject_01"]
    assert "rejection of H0 at: * 0.10  ** 0.05  *** 0.01" in capsys.readouterr().out


def test_analyze_too_short_is_data_error(tmp_path, capsys):
    bad = tmp_path / "empty.csv"
    bad.write_text("date,close\n")
    assert run_cli(["analyze", "--input", str(bad)]) == 2
    assert "TooShort" in capsys.readouterr().err


def _write_ar1_prices(path):
    """101 prices whose 100 log returns fit AR(1) at max_lag 2 (by AIC)."""
    model = ARModel(order=1, intercept=0.0, coefficients=[0.6], residual_sd=0.01)
    r = generate(ar_recursive_spec(model, 100, seed=1)).values
    prices = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(r)]))
    path.write_text("date,close\n" + "".join(f"d{i},{p!r}\n"
                                            for i, p in enumerate(prices.tolist())))


@pytest.mark.parametrize("extra, named", [
    ([], "max_lag 10"),  # 100 returns: the AR fit needs more than 10*max_lag
    (["--max-lag", "2"], "got 99"),  # AR(1) leaves 99 residuals
], ids=["ar-fit", "residuals"])
def test_analyze_short_series_stops_before_simulating(tmp_path, monkeypatch, capsys,
                                                      extra, named):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated a series the protocol cannot test")

    monkeypatch.setattr(montecarlo, "replicate", no_simulation)
    prices = tmp_path / "short.csv"
    _write_ar1_prices(prices)
    out_dir = tmp_path / "reports"
    assert run_cli(["analyze", "--input", str(prices), "--out-dir", str(out_dir),
                    "--json", *extra]) == 2
    err = capsys.readouterr().err
    assert "TooShort" in err and named in err
    assert not out_dir.exists()


def test_usage_errors_exit_one():
    assert run_cli(["estimate", "--method", "nope", "--input", "x.csv"]) == 1
    assert run_cli(["frobnicate"]) == 1
    assert run_cli([]) == 1


def test_missing_file_is_data_error(capsys):
    assert run_cli(["estimate", "--method", "rra", "--input",
                    "/no/such/file.csv"]) == 2


@pytest.mark.parametrize("text", ["\nvalue\n0.1\n", ""], ids=["blank-first-line", "empty"])
def test_headerless_file_is_data_error(tmp_path, text):
    path = tmp_path / "values.csv"
    path.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(selfaffine.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", "from selfaffine.cli import main; main()",
                          "estimate", "--method", "rra", "--input", str(path)],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 2
    assert "expected header 'value'" in out.stderr and "Traceback" not in out.stderr


def test_selftest_passes(capsys):
    assert run_cli(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_import_loads_no_scipy():
    # scipy costs about a second of start-up and is needed only by the tests
    env = dict(os.environ, PYTHONPATH=str(Path(selfaffine.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, selfaffine; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_ar_generation_and_analyze_load_no_scipy(tmp_path):
    # the AR recursion and normalize_transform's ndtri are numpy ports of
    # lfilter and Cephes, so neither generation nor analyze loads any scipy module
    env = dict(os.environ, PYTHONPATH=str(Path(selfaffine.__file__).parents[1]))
    code = f"""import sys
import numpy as np
from selfaffine.analysis import AnalyzeConfig, analyze_index
from selfaffine.simulate import ar_recursive_spec, generate_block
from selfaffine.timeseries import ARModel, read_prices_csv
model = ARModel(order=2, intercept=0.0, coefficients=np.array([0.3, -0.1]), residual_sd=1.0)
generate_block(ar_recursive_spec(model, 200), [1, 2, 3])
analyze_index(read_prices_csv({str(DATA / "prices_demo.csv")!r}),
              AnalyzeConfig(reps=100, cache_dir={str(tmp_path)!r}))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_run_tables_script_output_is_pinned():
    # the critical-value, bias and power rows of the study at 100 replications
    env = dict(os.environ, PYTHONPATH=str(Path(selfaffine.__file__).parents[1]))
    script = Path(__file__).parents[1] / "scripts" / "run_tables.py"
    out = subprocess.run([sys.executable, str(script), "--reps", "100", "--lengths", "500"],
                         env=env, capture_output=True, check=True).stdout
    assert out == (DATA / "run_tables_r100_T500.csv").read_bytes()


def test_run_tables_script_builds_each_null_once(monkeypatch, capsys):
    # 1 NIID pass shared by the critical values and the power grid, and
    # 6 alternative passes each for the bias rows and the power grid
    script = Path(__file__).parents[1] / "scripts" / "run_tables.py"
    spec = importlib.util.spec_from_file_location("run_tables", script)
    run_tables = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_tables)
    passes = []

    def counted(spec, *args, **kwargs):
        passes.append(spec.model)
        return replicate(spec, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "replicate", counted)
    monkeypatch.setattr(run_tables, "replicate", counted)
    monkeypatch.setattr(sys, "argv", ["run_tables.py", "--reps", "100", "--lengths", "500"])
    run_tables.main()
    assert capsys.readouterr().out.encode() == (DATA / "run_tables_r100_T500.csv").read_bytes()
    assert len(passes) == 13 and passes.count("niid") == 1


def test_package_runs_as_a_module():
    env = dict(os.environ, PYTHONPATH=str(Path(selfaffine.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "selfaffine", "--version"],
                          env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout.strip()) == (0, selfaffine.__version__)
    done = subprocess.run([sys.executable, "-m", "selfaffine", "no-such-command"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 1 and "invalid choice" in done.stderr


def test_top_level_api_is_what_readme_documents():
    # README's Library block runs its import as written; the top level adds
    # only the engine, the cached table builder, the error base and the version
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    statement = re.search(r"from selfaffine import \(([^)]*)\)", block)
    exec(statement.group(0), {})
    documented = [name.strip() for name in statement.group(1).split(",")]
    assert sorted(selfaffine.__all__) == sorted(
        documented + ["replicate", "build_tables", "SelfAffineError", "__version__"])

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import selfaffine
from selfaffine.cli import run_cli
from selfaffine.simulate import generate, niid_spec
from selfaffine.timeseries import read_values_csv, write_values_csv

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


@pytest.mark.parametrize("method", ["fa1", "fa2", "fa3", "gph", "robinson",
                                    "pickands", "hill", "hr"])
def test_estimate_every_method(tmp_path, method):
    out = tmp_path / "sim.csv"
    run_cli(["simulate", "--model", "niid", "-T", "400", "--seed", "8",
             "--out", str(out)])
    est = tmp_path / "est.csv"
    assert run_cli(["estimate", "--method", method, "--input", str(out),
                    "--out", str(est)]) == 0
    rows = list(csv.reader(est.open()))
    assert rows[1][0] == method


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


@pytest.mark.parametrize("damage", ["truncated", "foreign"])
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
    else:  # another request's table under this request's name
        critvals(6, tmp_path / "b")
        [other] = (tmp_path / "b").iterdir()
        path.write_bytes(other.read_bytes())
    capsys.readouterr()
    assert critvals(5, tmp_path / "a") == fresh
    assert path.read_bytes() == good
    err = capsys.readouterr().err
    assert "WARNING" in err and path.name in err


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
    assert 0.0 <= float(rows[1][4]) <= 1.0


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


def test_analyze_too_short_is_data_error(tmp_path, capsys):
    bad = tmp_path / "empty.csv"
    bad.write_text("date,close\n")
    assert run_cli(["analyze", "--input", str(bad)]) == 2
    assert "TooShort" in capsys.readouterr().err


def test_usage_errors_exit_one():
    assert run_cli(["estimate", "--method", "nope", "--input", "x.csv"]) == 1
    assert run_cli(["frobnicate"]) == 1
    assert run_cli([]) == 1


def test_missing_file_is_data_error(capsys):
    assert run_cli(["estimate", "--method", "rra", "--input",
                    "/no/such/file.csv"]) == 2


def test_selftest_passes(capsys):
    assert run_cli(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_import_loads_no_scipy():
    # scipy costs about a second of start-up; only the functions that use it import it
    env = dict(os.environ, PYTHONPATH=str(Path(selfaffine.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, selfaffine; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"

import csv
from pathlib import Path

import numpy as np
import pytest

from selfaffine.cli import run_cli
from selfaffine.timeseries import read_values_csv

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


@pytest.mark.parametrize("damage", ["truncated", "foreign"])
def test_critvals_bad_cache_file_is_a_miss(tmp_path, damage):
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
    assert critvals(5, tmp_path / "a") == fresh
    assert path.read_bytes() == good


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

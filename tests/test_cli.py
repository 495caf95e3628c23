import argparse
import ast
import base64
import csv
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, make_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

import selfaffine
import selfaffine.montecarlo as montecarlo
from selfaffine.analysis import AnalyzeConfig
from selfaffine.cli import _spec_from_args, build_parser, run_cli
from selfaffine.montecarlo import replicate
from selfaffine.simulate import (
    MODELS,
    SimulationSpec,
    ar_recursive_spec,
    arfima_spec,
    generate,
    niid_spec,
)
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
    # counts that add up to "failures": 0 but are not all positive ints
    pytest.param(lambda f: {**f, "failures_by_kind": {"ZeroDispersion": 2, "TooShort": -2}},
                 id="kinds-negative"),
    pytest.param(lambda f: {**f, "failures_by_kind": {"TooShort": 0}}, id="kind-zero"),
    pytest.param(lambda f: {**f, "failures_by_kind": {"TooShort": 0.0}}, id="kind-float"),
    pytest.param(lambda f: {**f, "failures_by_kind": {"TooShort": False}}, id="kind-bool"),
    pytest.param(lambda f: {**f, "null": "not base64!"}, id="null-not-base64"),
    pytest.param(_resample(lambda v: v.tobytes()[:-3]), id="null-ragged"),
    pytest.param(_resample(lambda v: v[:-1].tobytes()), id="null-short"),
    pytest.param(_resample(lambda v: np.append(v[:-1], np.inf).tobytes()), id="null-inf"),
    pytest.param(_resample(lambda v: v[::-1].tobytes()), id="null-unsorted"),
    pytest.param(lambda f: {**f, "null": "", "failures": 120,
                            "failures_by_kind": {"ZeroDispersion": 120}}, id="null-empty"),
    pytest.param(lambda f: {**{k: v for k, v in f.items() if k != "null"},
                            "cutoffs": [[0.1, 0.2], [0.05, 0.25], [0.01, 0.3]]},
                 id="cutoffs-only"),
    # a wrong-typed field: a count that is a float or a bool, a moment that
    # is missing, text, a bool or not finite
    pytest.param(lambda f: {**f, "T": 128.0}, id="T-float"),
    pytest.param(lambda f: {**f, "reps": 120.0}, id="reps-float"),
    pytest.param(lambda f: {**f, "master_seed": 5.0}, id="seed-float"),
    pytest.param(lambda f: {**f, "failures": False}, id="failures-bool"),
    pytest.param(lambda f: {**f, "mean": None}, id="mean-null"),
    pytest.param(lambda f: {**f, "mean": "0.5"}, id="mean-string"),
    pytest.param(lambda f: {**f, "mean": True}, id="mean-bool"),
    pytest.param(lambda f: {**f, "sd": True}, id="sd-bool"),
    pytest.param(lambda f: {**f, "mean": math.nan}, id="mean-nan"),
    pytest.param(lambda f: {**f, "sd": math.inf}, id="sd-inf")])
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


@pytest.mark.parametrize("argv, message", [
    (["critvals", "--method", "hill", "-T", "128", "--reps", "120", "--levels", "0.05,0.05"],
     "level"),
    (["power", "--method", "hill", "-T", "128", "--model", "arfima", "--d", "0.3",
      "--reps", "60", "--null-reps", "120", "--level", "1.5"], "level"),
    (["power", "--method", "rra", "-T", "200", "--model", "niid",
      "--reps", "0", "--null-reps", "100"], "error: reps must be at least 1\n"),
    (["analyze", "--input", str(DATA / "prices_demo.csv"), "--reps", "120",
      "--levels", "0.05,1.5"], "level")],
    ids=["critvals-repeated-level", "power-level-out-of-range", "power-no-reps",
         "analyze-level-out-of-range"])
def test_bad_level_is_a_data_error_before_simulating(tmp_path, monkeypatch, capsys, argv,
                                                     message):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the arguments were checked")

    monkeypatch.setattr(montecarlo, "replicate", no_simulation)
    out = "--out-dir" if argv[0] == "analyze" else "--out"
    assert run_cli([*argv, "--cache-dir", str(tmp_path), out, str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_warm_cache_checks_workers(tmp_path, capsys):
    # the cache serves only a request that a cold run would accept
    args = ["critvals", "--method", "hill", "-T", "200", "--reps", "100",
            "--cache-dir", str(tmp_path)]
    assert run_cli(args) == 0
    capsys.readouterr()
    assert run_cli([*args, "--workers", "0"]) == 2
    assert capsys.readouterr().err == "error: workers must be at least 1\n"


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


#: the parameters that `simulate --model m -T 100` gives a model besides T:
#: the CLI defaults of the parameters it requires
BARE_PARAMETERS = {"arfima": {"d": 0.0}, "lstable": {"alpha": 2.0}, "student_t": {"df": 10},
                   "ar_recursive": {"ar": ARModel(0, 0.0, [], 1.0)}}


def test_model_flags_default_to_the_spec():
    # a flag not given leaves the field's class default
    for model, spec_class in MODELS.items():
        args = build_parser().parse_args(["simulate", "--model", model.replace("_", "-"),
                                          "-T", "100", "--out", "x.csv"])
        want = spec_class(T=100, **BARE_PARAMETERS.get(model, {}))
        assert repr(_spec_from_args(args)) == repr(want), model


def _subcommand(command):
    """The sub-parser of `command`."""
    parser = build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[command]


@pytest.mark.parametrize("command", ["simulate", "power"])
def test_every_model_field_has_a_flag(command):
    options = {o for action in _subcommand(command)._actions for o in action.option_strings}
    named = {"T": ["-T"], "ar": ["--ar-coefficients", "--ar-intercept", "--ar-sd"]}
    for spec_class in MODELS.values():
        for f in fields(spec_class):
            flags = named.get(f.name, [f"--{f.name.replace('_', '-')}"])
            assert set(flags) <= options, (command, spec_class.model, f.name)


@pytest.mark.parametrize("model", MODELS)
def test_every_int_field_takes_integers_only(model):
    # one rule for every int field of every spec: a float or a bool is
    # refused, not truncated, and a numpy integer is stored as its int
    args = build_parser().parse_args(["simulate", "--model", model.replace("_", "-"),
                                      "-T", "200", "--out", "x.csv"])
    spec = _spec_from_args(args)
    names = [f.name for f in fields(spec) if f.type in (int, "int")]
    assert {"T", "seed"} <= set(names)
    for name in names:
        for bad in (1.0, 1.5, True):
            with pytest.raises(TypeError, match=f"{name} must be an integer"):
                replace(spec, **{name: bad})
        respelt = replace(spec, **{name: np.int64(getattr(spec, name))})
        assert type(getattr(respelt, name)) is int and respelt == spec


def _scaled_normal(name, default):
    """A model to register as "scaled_normal": NIID returns times its one
    float parameter `name`, which has no default where `default` is None."""
    def fill(self, rngs, out):
        niid_spec(self.T)._fill(rngs, out)
        out *= getattr(self, name)

    fields_ = ([("T", int), (name, float), ("seed", int, 0)] if default is None
               else [("T", int), ("seed", int, 0), (name, float, default)])
    return make_dataclass("ScaledNormalSpec", fields_, bases=(SimulationSpec,), frozen=True,
                          namespace={"model": "scaled_normal", "_fill": fill})


@pytest.mark.parametrize("name, default", [("sigma", 2.0), ("alpha", 0.5)])
def test_a_flag_not_given_leaves_the_models_own_default(tmp_path, monkeypatch, name, default):
    # lstable's sigma default and its CLI alpha default are lstable's alone
    monkeypatch.setitem(MODELS, "scaled_normal", _scaled_normal(name, default))
    out = tmp_path / "x.csv"
    assert run_cli(["simulate", "--model", "scaled-normal", "-T", "50", "--seed", "4",
                    "--out", str(out)]) == 0
    assert read_values_csv(out).values.tobytes() == \
        (default * generate(niid_spec(50, seed=4)).values).tobytes()


@pytest.mark.parametrize("command", ["simulate", "power"])
def test_a_new_field_gets_its_flag(monkeypatch, capsys, command):
    spec_class = _scaled_normal("scale", 1.0)
    monkeypatch.setitem(MODELS, "scaled_normal", spec_class)
    extra = ["--method", "hill"] if command == "power" else []
    args = build_parser().parse_args([command, "--model", "scaled-normal", "-T", "100",
                                      "--scale", "3", *extra, "--out", "x.csv"])
    assert _spec_from_args(args) == spec_class(100, 0, 3.0)
    # a model without the field does not read its flag
    assert run_cli([command, "--model", "niid", "-T", "100", "--scale", "2", *extra,
                    "--out", "x.csv"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == \
        "selfaffine: error: --model niid does not read --scale"


@pytest.mark.parametrize("command", ["simulate", "power"])
def test_a_field_without_a_default_needs_its_flag(tmp_path, monkeypatch, capsys, command):
    # the spec class cannot be built without it: a usage error, not a traceback
    monkeypatch.setitem(MODELS, "scaled_normal", _scaled_normal("scale", None))
    out = tmp_path / "x.csv"
    extra = ["--method", "hill", "--reps", "100", "--null-reps", "100"] if command == "power" \
        else []
    argv = [command, "--model", "scaled-normal", "-T", "200", *extra, "--out", str(out)]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err.splitlines()[-1] == \
        "selfaffine: error: --model scaled-normal needs --scale"
    # another model's flag as well: the unread flag is the one error named
    assert run_cli([*argv, "--d", "0.3"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == \
        "selfaffine: error: --model scaled-normal does not read --d"
    assert not out.exists()
    assert run_cli([*argv, "--scale", "2"]) == 0
    assert out.exists()


def test_model_choices_are_the_registered_models(tmp_path, monkeypatch):
    ScaledNormalSpec = _scaled_normal("sigma", 1.0)

    def simulate(model, *flags):
        return run_cli(["simulate", "--model", model, "-T", "50", "--seed", "4", *flags,
                        "--out", str(tmp_path / "x.csv")])

    assert simulate("scaled-normal", "--sigma", "2") == 1
    monkeypatch.setitem(MODELS, ScaledNormalSpec.model, ScaledNormalSpec)
    own = {"d": ("--d", "0.1"), "alpha": ("--alpha", "1.5")}
    for model, spec_class in MODELS.items():  # each model given only its own flags
        flags = [flag for f in fields(spec_class) for flag in own.get(f.name, ())]
        assert simulate(model.replace("_", "-"), *flags) == 0, model
    # the new model's fields are filled from the flags of their names
    assert simulate("scaled-normal", "--sigma", "2") == 0
    assert read_values_csv(tmp_path / "x.csv").values.tobytes() == \
        (2 * generate(niid_spec(50, seed=4)).values).tobytes()


@pytest.mark.parametrize("command, model, flags, unread", [
    ("simulate", "niid", ["--d", "0.3"], "--d"),
    ("simulate", "niid", ["--df", "3", "--ar-sd", "2"], "--ar-sd, --df"),
    ("simulate", "arfima", ["--d", "0.3", "--alpha", "1.5"], "--alpha"),
    ("simulate", "ar-recursive", ["--ar-sd", "2", "--truncation", "10"], "--truncation"),
    ("power", "lstable", ["--alpha", "1.5", "--ar-coefficients", "0.2"], "--ar-coefficients"),
])
def test_a_flag_the_model_does_not_read_is_a_usage_error(tmp_path, capsys, command, model,
                                                        flags, unread):
    out = tmp_path / "x.csv"
    extra = ["--method", "hill", "--reps", "100"] if command == "power" else []
    assert run_cli([command, "--model", model, "-T", "200", *flags, *extra,
                    "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == \
        f"selfaffine: error: --model {model} does not read {unread}"
    assert not out.exists()


def test_a_model_reads_its_own_flags(tmp_path):
    out = tmp_path / "x.csv"
    assert run_cli(["simulate", "--model", "arfima", "--d", "0.2", "--truncation", "99",
                    "-T", "200", "--seed", "3", "--out", str(out)]) == 0
    assert read_values_csv(out).values.tobytes() == \
        generate(arfima_spec(0.2, 200, seed=3, truncation=99)).values.tobytes()
    assert run_cli(["simulate", "--model", "ar-recursive", "--ar-coefficients", "0.3",
                    "--ar-intercept", "0.1", "--ar-sd", "2", "--burn-in", "1200",
                    "-T", "200", "--seed", "3", "--out", str(out)]) == 0
    model = ARModel(1, 0.1, [0.3], 2.0)
    assert read_values_csv(out).values.tobytes() == \
        generate(ar_recursive_spec(model, 200, seed=3, burn_in=1200)).values.tobytes()


@pytest.mark.parametrize("coefficients", ["nan", "0.2,inf", "0.1,-inf"])
def test_non_finite_ar_coefficients_are_a_data_error(tmp_path, capsys, coefficients):
    out = tmp_path / "ar.csv"
    assert run_cli(["simulate", "--model", "ar-recursive", "--ar-coefficients", coefficients,
                    "-T", "200", "--out", str(out)]) == 2
    listed = [float(c) for c in coefficients.split(",")]
    assert capsys.readouterr().err == \
        f"error: NonFiniteValue: AR coefficients must be finite, got {listed}\n"
    assert not out.exists()


def test_ar_coefficients_are_a_float_list(tmp_path, capsys):
    out = tmp_path / "ar.csv"
    assert run_cli(["simulate", "--model", "ar-recursive", "--ar-coefficients", "0.3,,0.2",
                    "-T", "50", "--out", str(out)]) == 1
    assert "--ar-coefficients" in capsys.readouterr().err
    assert not out.exists()
    # an omitted flag is an AR(0) model
    assert run_cli(["simulate", "--model", "ar-recursive", "-T", "50", "--out", str(out)]) == 0
    assert read_values_csv(out).values.tobytes() == \
        generate(ar_recursive_spec(ARModel(0, 0.0, [], 1.0), 50)).values.tobytes()


@pytest.mark.parametrize("argv", [
    ["critvals", "--method", "hill", "-T", "100", "--reps", "100", "--out"],
    ["power", "--model", "niid", "-T", "100", "--method", "hill", "--reps", "100", "--out"],
    ["simulate", "--model", "niid", "-T", "100", "--out"],
    ["analyze", "--input", str(DATA / "prices_demo.csv"), "--reps", "100", "--out-dir"],
], ids=lambda argv: argv[0])
def test_a_negative_seed_is_a_usage_error(tmp_path, capsys, argv):
    # numpy's SeedSequence rejects it too, but only after analyze has fitted
    # its AR model, and with a message that names no flag
    out = tmp_path / "out"
    assert run_cli([*argv, str(out), "--seed", "-1"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == \
        f"selfaffine {argv[0]}: error: argument --seed: must be a non-negative integer, got -1"
    assert not out.exists()


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
    # scipy costs about a second of start-up and is needed only by the tests;
    # the process pool (concurrent.futures.process, multiprocessing) costs
    # milliseconds and only a run with more than one worker needs it, and
    # numpy.random (20-30 ms) only a run that draws a series
    env = dict(os.environ, PYTHONPATH=str(Path(selfaffine.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, selfaffine; print(sorted(m for m in sys.modules "
         "if m.split('.')[0] in ('scipy', 'concurrent', 'multiprocessing') "
         "or m.startswith('numpy.random')))"],
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


def test_kernel_times_script_times_a_long_cell(monkeypatch):
    # the script imports the package's internals by name: a rename breaks it here
    script = Path(__file__).parents[1] / "scripts" / "kernel_times.py"
    spec = importlib.util.spec_from_file_location("kernel_times", script)
    kernel_times = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernel_times)
    monkeypatch.setattr(kernel_times, "LONG_T", 1000)
    monkeypatch.setattr(kernel_times, "BUDGET_S", 0)
    cell = kernel_times.long_cell("hill")
    assert re.fullmatch(r"`hill` \d+\.\d\d \[\d+\.\d\d-\d+\.\d\d\]; \d+ faults", cell), cell


def test_perfbench_finds_every_attribute_it_traces(monkeypatch):
    # the traced benchmark run rebinds these module attributes, some kept in
    # the package only for it (its `noqa: F401` imports), so dropping one
    # breaks the benchmark; this loads perfbench's workloads and writes nothing
    bench = Path(__file__).parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))  # for its `tracing` import
    spec = importlib.util.spec_from_file_location("workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    targets = workloads.trace_targets()
    assert targets and all(callable(getattr(t.module, t.attr, None)) for t in targets)


def test_no_module_imports_a_name_it_never_reads():
    # the unused-import rule (F401) of a linter, in the standard library: an
    # imported name is read somewhere in its module, listed in its __all__,
    # or marked `# noqa: F401` on its line (perfbench's traced attributes)
    root = Path(__file__).parents[1]
    unused = []
    for path in sorted(p for d in ("src", "scripts", "tests") for p in (root / d).rglob("*.py")):
        source = path.read_text()
        tree, lines = ast.parse(source), source.splitlines()
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= {name for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"]
                 for name in ast.literal_eval(node.value)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                unused += [f"{path.relative_to(root)}:{alias.lineno} {alias.name}"
                           for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in read
                           and "# noqa: F401" not in lines[alias.lineno - 1]]
    assert unused == []


def test_run_tables_script_rejects_an_unknown_table():
    # a misspelt table is a usage error, not an empty run
    env = dict(os.environ, PYTHONPATH=str(Path(selfaffine.__file__).parents[1]))
    script = Path(__file__).parents[1] / "scripts" / "run_tables.py"
    done = subprocess.run([sys.executable, str(script), "--reps", "100", "--lengths", "500",
                           "--tables", "critvals,critval"],
                          env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (2, "")
    assert "usage:" in done.stderr
    assert "unknown table 'critval' (choose from critvals, bias, power)" in done.stderr


@pytest.mark.parametrize("lengths, message", [
    ("500,abc", "length 'abc' is not an integer"),
    ("50", "length 50 is below 100")], ids=["not-an-integer", "below-the-grid"])
def test_run_tables_script_rejects_a_bad_length(lengths, message):
    # a usage error before the first table's header, so before any simulation
    env = dict(os.environ, PYTHONPATH=str(Path(selfaffine.__file__).parents[1]))
    script = Path(__file__).parents[1] / "scripts" / "run_tables.py"
    done = subprocess.run([sys.executable, str(script), "--reps", "100", "--lengths", lengths],
                          env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (2, "")
    assert "usage:" in done.stderr and f"argument --lengths: {message}" in done.stderr


@pytest.mark.parametrize("args, message", [
    (["--seed", "-1"], "argument --seed: must be a non-negative integer, got -1"),
    (["--reps", "0", "--tables", "bias"], "argument --reps: 0 is below 1,"),
    (["--reps", "50", "--tables", "critvals"], "argument --reps: 50 is below 100,"),
    (["--reps", "99", "--tables", "bias,power"], "argument --reps: 99 is below 100,"),
], ids=["negative-seed", "no-reps", "critvals-below-100", "power-below-100"])
def test_run_tables_script_rejects_a_bad_seed_or_reps(args, message):
    # usage errors before any simulation, not tracebacks from the engine
    env = dict(os.environ, PYTHONPATH=str(Path(selfaffine.__file__).parents[1]))
    script = Path(__file__).parents[1] / "scripts" / "run_tables.py"
    done = subprocess.run([sys.executable, str(script), "--lengths", "500", *args],
                          env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (2, "")
    assert "usage:" in done.stderr and message in done.stderr


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

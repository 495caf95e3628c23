"""Tests for the benchmark's helpers: span arithmetic, ratio bases, wrapper restore.

    python3 -m pytest perfbench -q
"""
import json
import types

import pytest

from run import END_TO_END, ROOT, WORKLOAD_NAMES, Run, close, import_source, per_layer_specs
from tracing import Target, Tracer, ratio

assert import_source() is None
from selfaffine import methods, montecarlo  # noqa: E402
from selfaffine.simulate import niid_spec  # noqa: E402
from workloads import (  # noqa: E402
    GEN_MODELS,
    WORKLOADS,
    Result,
    layer_metrics,
    trace_detail,
    trace_targets,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_direct_children():
    clock = FakeClock()
    tr = Tracer(clock)
    with tr.span("outer"):
        clock.now += 1
        with tr.span("inner", method="rra"):
            clock.now += 2
            with tr.span("leaf"):
                clock.now += 4
        clock.now += 8
    outer, inner, leaf = tr.stats("outer"), tr.stats("inner"), tr.stats("leaf")
    assert (outer.total, outer.self_time) == (15, 9)
    assert (inner.total, inner.self_time) == (6, 2)
    assert (leaf.total, leaf.self_time) == (4, 4)
    # self times of every span add up to the top-level duration
    assert outer.self_time + inner.self_time + leaf.self_time == outer.total


def test_stats_filter_by_parent_and_tags():
    clock = FakeClock()
    tr = Tracer(clock)
    with tr.span("rr"):
        for method in ("rra", "fa1", "rra"):
            with tr.span("estimate", method=method, T=100):
                clock.now += 1
    with tr.span("estimate", method="rra", T=200):
        clock.now += 5
    assert tr.stats("estimate").calls == 4
    assert tr.stats("estimate", method="rra").total == 7
    assert tr.stats("estimate", method="rra", T=100).calls == 2
    assert tr.stats("estimate", parent="rr").total == 3
    assert tr.stats("estimate", parent=None).total == 5
    assert tr.stats("rr").self_time == 0


def test_installed_wraps_counts_and_restores_even_on_error():
    mod = types.SimpleNamespace(f=lambda x: x * 2, g=lambda: None)
    originals = (mod.f, mod.g)
    tr = Tracer(FakeClock())
    seen = []
    targets = [Target(mod, "f", "F", tags=lambda x: {"x": x},
                      on_result=lambda t, args, kwargs, result: seen.append(result)),
               Target(mod, "g", "G")]
    with pytest.raises(RuntimeError):
        with tr.installed(targets):
            assert mod.f is not originals[0] and mod.g is not originals[1]
            assert mod.f(3) == 6
            raise RuntimeError("stop")
    assert mod.f is originals[0] and mod.g is originals[1]
    assert seen == [6]
    assert tr.stats("F", x=3).calls == 1


def test_span_is_recorded_when_the_wrapped_call_raises():
    def boom():
        raise ValueError("x")

    mod = types.SimpleNamespace(boom=boom)
    tr = Tracer(FakeClock())
    with tr.installed([Target(mod, "boom", "boom")]):
        with pytest.raises(ValueError):
            mod.boom()
    assert tr.stats("boom").calls == 1
    assert tr._stack == []


def test_ratio_reports_zero_on_an_empty_base():
    assert ratio(3, 4) == 0.75
    assert ratio(0, 0) == 0.0
    assert ratio(5, 0) == 0.0


def test_layer_ratios_use_their_own_bases():
    tr = Tracer(FakeClock())
    tr.count("montecarlo.reps_attempted", 1000)
    tr.count("montecarlo.reps_failed", 10)
    tr.count("montecarlo.cache.hits", 7)
    m = layer_metrics(tr, 1.0, 2)
    assert m["montecarlo.useful_ratio"] == 0.99
    assert (m["montecarlo.reps_attempted"], m["montecarlo.reps_failed"]) == (500, 5)
    assert (m["montecarlo.cache.hits"], m["montecarlo.cache.misses"]) == (3.5, 0)
    assert m["montecarlo.cache.hit_ratio"] == 1.0
    assert m["trace.overhead_s"] == 0.5
    empty = layer_metrics(Tracer(FakeClock()), 0.0, 1)
    assert empty["montecarlo.useful_ratio"] == 0.0
    assert empty["montecarlo.cache.hit_ratio"] == 0.0
    assert empty["estimate.rra.us"] == 0.0


def test_fail_ratio_counts_items_mismatches_and_checks():
    run = Run(0, None, 1e-12)
    run.record(Result("k", {"v": 1.0}, 1, 9, 0))
    run.record(Result("k", {"v": 1.0}, 1, 9, 1))
    assert (run.attempted, run.failed, run.correct) == (20, 1, True)
    run.record(Result("k", {"v": 2.0}, 1, 9, 0))
    assert (run.attempted, run.failed, run.correct) == (30, 2, False)
    run.check("skipped", None)
    assert run.attempted == 30
    run.check("passes", True)
    assert (run.attempted, run.failed) == (31, 2)


def test_reference_comparison_tolerance():
    want = {"a": [0.5, 1], "b": {"c": "x"}}
    assert close({"a": [0.5 + 1e-13, 1], "b": {"c": "x"}}, want, 1e-12)
    assert not close({"a": [0.5 + 1e-11, 1], "b": {"c": "x"}}, want, 1e-12)
    assert not close({"a": [0.5], "b": {"c": "x"}}, want, 1e-12)
    assert not close({"a": [0.5, 1], "b": {"c": "y"}}, want, 1e-12)


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES) == list(WORKLOADS)
    assert [tuple(m.values()) for m in spec["end_to_end"]] == list(END_TO_END)
    layers = per_layer_specs(methods.METHODS, GEN_MODELS)
    assert [tuple(m.values()) for m in spec["per_layer"]] == layers
    assert list(layer_metrics(Tracer(), 0.0, 1)) == [name for name, _, _ in layers]


def test_trace_targets_restore_the_library_functions():
    targets = trace_targets()
    originals = [getattr(t.module, t.attr) for t in targets]
    with Tracer().installed(targets):
        assert all(getattr(t.module, t.attr) is not o for t, o in zip(targets, originals))
    assert all(getattr(t.module, t.attr) is o for t, o in zip(targets, originals))


def test_replication_time_splits_into_children_and_self():
    tr = Tracer()
    with tr.installed(trace_targets()):
        sample = montecarlo.run_replications(niid_spec(300), "rra", 6, 1)
    plain = montecarlo.run_replications(niid_spec(300), "rra", 6, 1)
    assert list(sample.values) == list(plain.values)
    m = layer_metrics(tr, 0.0, 1)
    assert m["rng.derive_seed.calls"] == m["simulate.generate.calls"] == 6
    assert m["estimate.rra.calls"] == m["montecarlo.reps_attempted"] == 6
    children = sum(tr.stats(n, parent="montecarlo.run_replications").total
                   for n in ("simulate.generate", "estimate", "rng.derive_seed"))
    rr = tr.stats("montecarlo.run_replications")
    assert children + rr.self_time == pytest.approx(rr.total, abs=1e-9)
    assert all("span" in line for line in trace_detail(tr, 0.0))

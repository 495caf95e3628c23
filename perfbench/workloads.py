"""The benchmark's workloads: set-up, one timed operation, and their checks.

Each workload is a closed loop in one process with workers=1: the next
operation starts when the previous one has returned. README.md next to this
file says why each workload exists.

An operation returns a `Result` whose `summary` holds everything that must
repeat: every operation of a run must give the same summary as the first one
with the same key, and that summary must match the recorded reference for
the seed (equal digests for report bytes, 1e-12 for numbers).
"""
from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from selfaffine import analysis, methods, montecarlo, rng, simulate, timeseries
from selfaffine.errors import SelfAffineError

from tracing import NullTracer, Target, Tracer, ratio

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

ANALYZE_REPS = 1000  # the CLI default
GOLDEN_REPS, GOLDEN_SEED = 120, 7  # the settings tests/data/golden_report.csv was made with
POWER_T = 2000
POWER_REPS = 250  # replications per mc-power cell
LONG_T = 100_000
SCALING = ("rra", "fa1", "fa2", "fa3")
TOLERANCE = 1e-12


@dataclass
class Result:
    key: str
    summary: dict
    work: int  # analyses, replications or battery passes
    attempted: int
    failed: int


@dataclass
class Check:
    name: str
    ok: bool | None  # None: skipped, counts as neither attempted nor failed
    detail: str = ""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# --- analyze-cold / analyze-warm -------------------------------------------------

@dataclass
class AnalyzeState:
    seed: int
    workdir: Path
    prices: timeseries.PriceSeries
    cache_dir: Path | None = None
    cache_files: frozenset = frozenset()


class Analyze:
    group = "analyze"
    unit = "analyses"

    reps_per_cell = ANALYZE_REPS

    def __init__(self, name: str, warm: bool):
        self.name = name
        self.warm = warm

    def _config(self, seed: int, cache_dir: Path) -> analysis.AnalyzeConfig:
        return analysis.AnalyzeConfig(reps=ANALYZE_REPS, seed=seed, workers=1,
                                      cache_dir=str(cache_dir), series_id="prices_demo")

    def setup(self, seed: int, workdir: Path) -> AnalyzeState:
        state = AnalyzeState(seed, workdir,
                             timeseries.read_prices_csv(DATA / "prices_demo.csv"))
        if self.warm:
            # the user's first analyze fills the cache; later ones read it
            state.cache_dir = Path(tempfile.mkdtemp(prefix="cache", dir=workdir))
            analysis.analyze_index(state.prices, self._config(seed, state.cache_dir))
            state.cache_files = frozenset(os.listdir(state.cache_dir))
        return state

    def warmup(self, state: AnalyzeState) -> tuple[list[Result], list[Check]]:
        # The golden run also takes first-call costs out of the timed loop.
        report = analysis.analyze_index(state.prices, analysis.AnalyzeConfig(
            reps=GOLDEN_REPS, seed=GOLDEN_SEED, series_id="prices_demo"))
        path = Path(tempfile.mkdtemp(prefix="golden", dir=state.workdir)) / "report.csv"
        analysis.write_report_csv(report, path)
        same = path.read_bytes() == (DATA / "golden_report.csv").read_bytes()
        return [], [Check("golden report (reps=120, seed=7) equals tests/data/golden_report.csv",
                          same)]

    def op(self, state: AnalyzeState, i: int, tr) -> Result:
        cache_dir = state.cache_dir or Path(tempfile.mkdtemp(prefix="cache", dir=state.workdir))
        out = Path(tempfile.mkdtemp(prefix="out", dir=state.workdir))
        with tr.span("analysis.analyze_index"):
            report = analysis.analyze_index(state.prices, self._config(state.seed, cache_dir))
        with tr.span("analysis.classify_source"):
            verdict = analysis.classify_source(report)
        with tr.span("analysis.render"):
            analysis.write_report_csv(report, out / "prices_demo_report.csv")
            (out / "prices_demo_report.json").write_text(analysis.report_json(report, verdict))
        summary = {"csv_sha256": _sha256(out / "prices_demo_report.csv"),
                   "json_sha256": _sha256(out / "prices_demo_report.json")}
        errors = sum(c.error is not None for c in report.cells)
        return Result("report", summary, 1, len(report.cells), errors)

    def after(self, state: AnalyzeState, baseline: dict) -> list[Check]:
        if not self.warm:
            return []
        now = frozenset(os.listdir(state.cache_dir))
        return [Check("warm analyze wrote no cache file (every NIID table was read)",
                      now == state.cache_files, f"{len(state.cache_files)} files after set-up, "
                      f"{len(now)} after the loop")]


# --- mc-power-T2000 ---------------------------------------------------------------

@dataclass
class PowerState:
    seed: int
    null: simulate.SimulationSpec
    alternatives: tuple


def _table_summary(t: montecarlo.CriticalValueTable) -> dict:
    return {"mean": t.mean, "sd": t.sd, "cutoffs": [list(lc) for lc in t.cutoffs],
            "reps": t.reps, "failures": t.failures}


class McPower:
    """The study path of `scripts/run_tables.py table_power` at T=2000."""

    name = "mc-power-T2000"
    group = name
    unit = "replications"

    reps_per_cell = POWER_REPS

    def setup(self, seed: int, workdir: Path) -> PowerState:
        return PowerState(seed, simulate.niid_spec(POWER_T), (
            ("arfima", simulate.arfima_spec(0.08, POWER_T)),
            ("lstable", simulate.lstable_spec_for_hurst(0.58, POWER_T))))

    def warmup(self, state: PowerState) -> tuple[list[Result], list[Check]]:
        for spec in (state.null, *(alt for _, alt in state.alternatives)):
            for method in SCALING:
                montecarlo.run_replications(spec, method, 2, state.seed)
        return [], []

    def op(self, state: PowerState, i: int, tr) -> Result:
        summary, failed = {}, 0
        for method in SCALING:
            with tr.span("montecarlo.build_critical_values"):
                table = montecarlo.build_critical_values(state.null, method, POWER_REPS,
                                                         state.seed)
            cell = {"null": _table_summary(table)}
            failed += table.failures
            for label, alt in state.alternatives:
                with tr.span("montecarlo.power_function"):
                    p = montecarlo.power_function(alt, method, table, POWER_REPS,
                                                  state.seed + 1)
                cell[label] = {"rejection_rate": p.rejection_rate,
                               "reps_used": p.reps_used, "failures": p.failures}
                failed += p.failures
            summary[method] = cell
        reps = len(SCALING) * (1 + len(state.alternatives)) * POWER_REPS
        return Result("cells", summary, reps, reps, failed)

    def after(self, state: PowerState, baseline: dict) -> list[Check]:
        name = "rra null table identical at workers=1 and workers=2"
        workers = min(2, nproc())
        if workers < 2:
            return [Check(name, None, "skipped: one CPU available")]
        table = montecarlo.build_critical_values(state.null, "rra", POWER_REPS, state.seed,
                                                 workers=workers)
        return [Check(name, _table_summary(table) == baseline["cells"]["rra"]["null"])]


# --- estimate-long ----------------------------------------------------------------

class EstimateLong:
    name = "estimate-long"
    group = name
    unit = "battery passes"

    reps_per_cell = None

    def setup(self, seed: int, workdir: Path) -> list:
        """(label, series) pairs."""
        specs = (("arfima-0", simulate.arfima_spec(0.08, LONG_T, seed=rng.derive_seed(seed, 0))),
                 ("arfima-1", simulate.arfima_spec(0.08, LONG_T, seed=rng.derive_seed(seed, 1))),
                 ("lstable-0", simulate.lstable_spec_for_hurst(0.58, LONG_T,
                                                               seed=rng.derive_seed(seed, 2))),
                 ("lstable-1", simulate.lstable_spec_for_hurst(0.58, LONG_T,
                                                               seed=rng.derive_seed(seed, 3))),
                 ("niid", simulate.niid_spec(LONG_T, seed=rng.derive_seed(seed, 4))))
        return [(label, simulate.generate(spec)) for label, spec in specs]

    def warmup(self, state: list) -> tuple[list[Result], list[Check]]:
        # the first pass over fresh arrays runs slowest, so it stays untimed
        return [self.op(state, i, NullTracer()) for i in range(len(state))], []

    def op(self, state: list, i: int, tr) -> Result:
        label, series = state[i % len(state)]
        values, failed = {}, 0
        for method in methods.METHODS:
            try:
                with tr.span("estimate", method=method, T=len(series)):
                    values[method] = methods.estimate_point(method, series)
            except SelfAffineError as exc:
                values[method] = type(exc).__name__
                failed += 1
        return Result(label, values, 1, len(methods.METHODS), failed)

    def after(self, state: list, baseline: dict) -> list[Check]:
        return []


WORKLOADS = {w.name: w for w in (Analyze("analyze-cold", warm=False),
                                 Analyze("analyze-warm", warm=True),
                                 McPower(), EstimateLong())}


# --- tracing ------------------------------------------------------------------------

GEN_MODELS = ("niid", "ar_recursive", "arfima", "lstable")


def _estimate_tags(method, series, *args, **kwargs) -> dict:
    return {"method": method, "T": len(series)}


def _count_reps(tr: Tracer, args, kwargs, sample) -> None:
    tr.count("montecarlo.reps_attempted", sample.reps)
    tr.count("montecarlo.reps_failed", sample.failures)


def _count_cache(tr: Tracer, args, kwargs, table) -> None:
    tr.count("montecarlo.cache.misses" if table is None else "montecarlo.cache.hits")


def trace_targets() -> list[Target]:
    """Library attributes the traced run rebinds; no file under src/ changes."""
    return [
        Target(montecarlo, "derive_seed", "rng.derive_seed"),
        Target(montecarlo, "generate", "simulate.generate",
               tags=lambda spec: {"model": spec.model, "T": spec.T}),
        Target(montecarlo, "estimate_point", "estimate", tags=_estimate_tags),
        Target(montecarlo, "run_replications", "montecarlo.run_replications",
               on_result=_count_reps),
        Target(montecarlo, "load_table", "montecarlo.load_table", on_result=_count_cache),
        Target(montecarlo, "save_table", "montecarlo.save_table"),
        Target(montecarlo, "critical_values", "montecarlo.critical_values"),
        Target(analysis, "build_critical_values", "montecarlo.build_critical_values"),
        Target(analysis, "estimate_point", "estimate", tags=_estimate_tags),
        Target(analysis, "fit_ar", "timeseries.fit_ar"),
        Target(analysis, "ar_filter", "timeseries.ar_filter"),
    ]


def layer_metrics(tr: Tracer, overhead_s: float, ops: int) -> dict[str, float]:
    """Per-layer metrics per traced operation, in the order BENCHMARK.json lists them.

    Calls, counts and seconds are divided by `ops`; per-call times and ratios
    are taken over the totals.
    """
    def per_op(x: float) -> float:
        return x / ops

    m: dict[str, float] = {}
    seeds = tr.stats("rng.derive_seed")
    m["rng.derive_seed.calls"] = per_op(seeds.calls)
    m["rng.derive_seed.s"] = per_op(seeds.total)
    m["simulate.generate.calls"] = per_op(tr.stats("simulate.generate").calls)
    for model in GEN_MODELS:
        g = tr.stats("simulate.generate", model=model)
        m[f"simulate.generate.{model}.us"] = 1e6 * ratio(g.total, g.calls)
    for method in methods.METHODS:
        e = tr.stats("estimate", method=method)
        m[f"estimate.{method}.calls"] = per_op(e.calls)
        m[f"estimate.{method}.s"] = per_op(e.total)
        m[f"estimate.{method}.us"] = 1e6 * ratio(e.total, e.calls)
    rr = tr.stats("montecarlo.run_replications")
    m["montecarlo.run_replications.s"] = per_op(rr.total)
    m["montecarlo.run_replications.self_s"] = per_op(rr.self_time)
    m["montecarlo.build_critical_values.s"] = per_op(
        tr.stats("montecarlo.build_critical_values").total)
    attempted = tr.counts.get("montecarlo.reps_attempted", 0)
    failed = tr.counts.get("montecarlo.reps_failed", 0)
    m["montecarlo.reps_attempted"] = per_op(attempted)
    m["montecarlo.reps_failed"] = per_op(failed)
    m["montecarlo.useful_ratio"] = ratio(attempted - failed, attempted)
    hits = tr.counts.get("montecarlo.cache.hits", 0)
    misses = tr.counts.get("montecarlo.cache.misses", 0)
    m["montecarlo.cache.hits"] = per_op(hits)
    m["montecarlo.cache.misses"] = per_op(misses)
    m["montecarlo.cache.hit_ratio"] = ratio(hits, hits + misses)
    for fn in ("load_table", "save_table", "critical_values"):
        m[f"montecarlo.{fn}.s"] = per_op(tr.stats(f"montecarlo.{fn}").total)
    m["timeseries.fit_ar.s"] = per_op(tr.stats("timeseries.fit_ar").total)
    m["timeseries.ar_filter.s"] = per_op(tr.stats("timeseries.ar_filter").total)
    m["analysis.analyze_index.self_s"] = per_op(tr.stats("analysis.analyze_index").self_time)
    m["analysis.classify_source.s"] = per_op(tr.stats("analysis.classify_source").total)
    m["analysis.render.s"] = per_op(tr.stats("analysis.render").total)
    m["trace.overhead_s"] = per_op(overhead_s)
    return m


def trace_detail(tr: Tracer, overhead_s: float) -> list[str]:
    """Per-(method, T) and per-(model, T) breakdown, and the build accounting."""
    lines = []
    for (name, tags, parent), s in sorted(tr.spans.items(), key=str):
        if name in ("estimate", "simulate.generate"):
            tag_text = " ".join(f"{k}={v}" for k, v in tags)
            lines.append(f"span {name} {tag_text} (in {parent or 'the benchmark'}): {s.calls} calls, "
                         f"{s.total:.4f} s, {1e6 * s.total / s.calls:.1f} us/call")
    build = tr.stats("montecarlo.build_critical_values")
    rr = tr.stats("montecarlo.run_replications")
    if build.calls and rr.calls == tr.stats("montecarlo.run_replications",
                                            parent="montecarlo.build_critical_values").calls:
        parts = {n: tr.stats(n, parent="montecarlo.run_replications").total
                 for n in ("simulate.generate", "estimate", "rng.derive_seed")}
        cache = sum(tr.stats(f"montecarlo.{fn}", parent="montecarlo.build_critical_values").total
                    for fn in ("load_table", "save_table", "critical_values"))
        residual = build.total - sum(parts.values()) - rr.self_time - cache
        lines.append(
            "accounting (informational, not a check): build_critical_values {:.4f} s = "
            "generate {:.4f} + estimate {:.4f} + derive_seed {:.4f} + run_replications self "
            "{:.4f} + load/save_table and critical_values {:.4f} + residual {:.4f} s "
            "(|residual| {} |trace.overhead_s| = {:.4f} s, summed over the traced operations)"
            .format(build.total, *parts.values(), rr.self_time, cache, residual,
                    "<=" if abs(residual) <= abs(overhead_s) else ">", abs(overhead_s)))
    return lines

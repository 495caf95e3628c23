#!/usr/bin/env python3
"""selfaffine benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload analyze-cold --seed 42 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from src/.
`--trace 0` times the workload untouched and prints the end-to-end metrics.
`--trace 1` runs the same operations untraced and then traced, with the
library functions named in workloads.trace_targets() rebound to span
wrappers, and prints the per-layer metrics. Human-readable detail goes to
stdout first; the last line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("analyze-cold", "analyze-warm", "mc-power-T2000", "estimate-long")
SETUP_REPEATS = 3
MIN_OPS = 2  # per run; a traced run makes at least this many of each kind

#: (name, unit, better, bound); bound is the share of the parent's median
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_cpu_s", "s", "lower", 0.25),
    ("op_wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("success_ratio", "ratio", "higher", 0.01),
)


def per_layer_specs(methods: tuple[str, ...], models: tuple[str, ...]) -> list[tuple]:
    """(name, unit, better) of every per-layer metric, in output order."""
    specs = [("rng.derive_seed.calls", "count", "lower"),
             ("rng.derive_seed.s", "s", "lower"),
             ("simulate.generate.calls", "count", "lower")]
    specs += [(f"simulate.generate.{m}.us", "us", "lower") for m in models]
    for m in methods:
        specs += [(f"estimate.{m}.calls", "count", "lower"),
                  (f"estimate.{m}.s", "s", "lower"),
                  (f"estimate.{m}.us", "us", "lower")]
    specs += [("montecarlo.run_replications.s", "s", "lower"),
              ("montecarlo.run_replications.self_s", "s", "lower"),
              ("montecarlo.build_critical_values.s", "s", "lower"),
              ("montecarlo.reps_attempted", "count", "lower"),
              ("montecarlo.reps_failed", "count", "lower"),
              ("montecarlo.useful_ratio", "ratio", "higher"),
              ("montecarlo.cache.hits", "count", "higher"),
              ("montecarlo.cache.misses", "count", "lower"),
              ("montecarlo.cache.hit_ratio", "ratio", "higher"),
              ("montecarlo.load_table.s", "s", "lower"),
              ("montecarlo.save_table.s", "s", "lower"),
              ("montecarlo.critical_values.s", "s", "lower"),
              ("timeseries.fit_ar.s", "s", "lower"),
              ("timeseries.ar_filter.s", "s", "lower"),
              ("analysis.analyze_index.self_s", "s", "lower"),
              ("analysis.classify_source.s", "s", "lower"),
              ("analysis.render.s", "s", "lower"),
              ("trace.overhead_s", "s", "lower")]
    return specs


def close(got, want, tol: float) -> bool:
    """Structural equality with floats compared to within `tol`."""
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            close(got[k], want[k], tol) for k in want)
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(close(g, w, tol) for g, w in zip(got, want)))
    if isinstance(want, float) and isinstance(got, float):
        return abs(got - want) <= tol
    return got == want


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_clock() -> float:
    """CPU seconds of this process plus those of its children that have ended.

    On a shared virtual machine the wall clock also counts time the host
    gave to other guests; CPU time does not, and it still counts work handed
    to worker processes once they are joined.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def import_seconds() -> float:
    """CPU time of a fresh interpreter that imports the package."""
    start = cpu_clock()
    subprocess.run([sys.executable, "-c", "import selfaffine"], check=True, cwd=ROOT,
                   env={**os.environ, "PYTHONPATH": str(SRC)})
    return cpu_clock() - start


def import_source() -> str | None:
    """Make `import selfaffine` load the checkout's src/ with one BLAS thread.

    Returns what went wrong, or None.
    """
    if not (SRC / "selfaffine" / "__init__.py").is_file():
        return f"no selfaffine source tree at {SRC}; run from a source checkout"
    # one thread per process: idle BLAS threads would spin on the second core
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import selfaffine

    if Path(selfaffine.__file__).resolve().parent != SRC / "selfaffine":
        return f"imported selfaffine from {selfaffine.__file__}, not from {SRC}"
    return None


class Run:
    """Counts, checks and output comparisons of one benchmark run."""

    def __init__(self, seed: int, reference: dict | None, tol: float):
        self.seed = seed
        self.reference = reference
        self.tol = tol
        self.baseline: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: list[str] = []

    def check(self, name: str, ok: bool | None, detail: str = "") -> None:
        status = {True: "ok", False: "FAILED", None: "skipped"}[ok]
        self.notes.append(f"check {status}: {name}" + (f" ({detail})" if detail else ""))
        if ok is None:
            return
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = False

    def record(self, result) -> None:
        """Count one operation's items and compare its output with the first."""
        first = self.baseline.setdefault(result.key, result.summary)
        same = result.summary == first
        self.attempted += result.attempted + 1
        self.failed += result.failed + (not same)
        if not same:
            self.correct = False
            self.notes.append(f"check FAILED: output {result.key} differs between operations")

    def raised(self, exc: Exception) -> None:
        self.attempted += 1
        self.failed += 1
        self.correct = False
        self.notes.append(f"check FAILED: operation raised {type(exc).__name__}: {exc}")

    def check_reference(self) -> None:
        if self.reference is None:
            self.notes.append(f"check skipped: no reference recorded for seed {self.seed}; "
                              "outputs checked for repeatability only")
            return
        for key, summary in sorted(self.baseline.items()):
            want = self.reference.get(key)
            self.check(f"output {key} matches the recorded reference for seed {self.seed}",
                       want is not None and close(summary, want, self.tol))


@dataclass
class Op:
    cpu_s: float
    wall_s: float
    result: object


def timed_ops(workload, state, run: Run, tracer, seconds: float, min_ops: int,
              max_ops: int | None = None) -> list[Op]:
    """Closed loop: operations back to back until `seconds` of wall time and
    `min_ops` operations are done, or exactly `max_ops` operations.

    Returns one Op for every operation that did not raise.
    """
    from selfaffine.errors import SelfAffineError

    done: list[Op] = []
    i = 0
    start = time.perf_counter()
    while max_ops is None or i < max_ops:
        if max_ops is None and i >= min_ops and time.perf_counter() - start >= seconds:
            break
        wall, cpu = time.perf_counter(), cpu_clock()
        try:
            result = workload.op(state, i, tracer)
        except SelfAffineError as exc:
            run.raised(exc)
        else:
            done.append(Op(cpu_clock() - cpu, time.perf_counter() - wall, result))
            run.record(result)
        i += 1
    return done


def end_to_end(workload, done: list[Op], imports: list[float], setups: list[float]) -> dict:
    """Every end-to-end metric but success_ratio, which waits for the last check."""
    from tracing import ratio

    cpu = [op.cpu_s for op in done]
    work = sum(op.result.work for op in done)
    values = {
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "op_cpu_s": statistics.median(cpu),
        "op_wall_s": statistics.median(op.wall_s for op in done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"setup: import selfaffine {statistics.median(imports):.4f} s (median of "
          f"{len(imports)} fresh interpreters) + workload set-up "
          f"{statistics.median(setups):.4f} s (median of {len(setups)}), CPU time")
    print(f"timed: {len(done)} operations, {work} {workload.unit}, CPU {sum(cpu):.3f} s, "
          f"wall {sum(op.wall_s for op in done):.3f} s")
    rate = ratio(work, sum(cpu))
    if workload.name.startswith("analyze"):
        print(f"analyze_s = {values['op_cpu_s']:.4f} CPU s per analyze "
              f"(median of {len(cpu)})")
    elif workload.name == "mc-power-T2000":
        print(f"reps_per_s = {rate:.2f} replications per CPU s")
    else:
        print(f"battery_per_s = {rate:.4f} nine-method passes per CPU s at T=100000")
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _, _ in END_TO_END if name in values}


def traced(workload, state, run: Run, seconds: float) -> dict:
    """Untraced operations, then as many traced ones; per-layer metrics.

    The trace overhead is the median traced operation's CPU time minus the
    median untraced one's, over at least two operations of each.
    """
    import workloads
    from selfaffine import methods
    from tracing import NullTracer, Tracer

    plain = timed_ops(workload, state, run, NullTracer(), seconds / 2, MIN_OPS)
    tracer = Tracer()
    targets = workloads.trace_targets()
    originals = [getattr(t.module, t.attr) for t in targets]
    with tracer.installed(targets):
        spanned = timed_ops(workload, state, run, tracer, 0.0, 0, max_ops=len(plain))
    run.check("traced outputs equal untraced outputs",
              len(spanned) == len(plain) and all(
                  op.result.summary == run.baseline[op.result.key] for op in spanned))
    run.check("every traced attribute restored to the original function",
              all(getattr(t.module, t.attr) is o for t, o in zip(targets, originals)))
    overhead = len(spanned) * (statistics.median(op.cpu_s for op in spanned)
                               - statistics.median(op.cpu_s for op in plain))
    print(f"traced: {len(spanned)} operations; per-layer metrics are per operation")
    metrics = workloads.layer_metrics(tracer, overhead, max(1, len(spanned)))
    for line in workloads.trace_detail(tracer, overhead):
        print(line)
    specs = per_layer_specs(methods.METHODS, workloads.GEN_MODELS)
    return {name: {"value": metrics[name], "unit": unit} for name, unit, _ in specs}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    problem = import_source()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    import numpy
    import scipy
    import selfaffine
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    reference_file = HERE / "reference.json"
    references = json.loads(reference_file.read_text()) if reference_file.is_file() else {}
    run = Run(args.seed, references.get(workload.group, {}).get(str(args.seed)),
              workloads.TOLERANCE)
    provenance = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "reps_per_cell": workload.reps_per_cell,
        "nproc": workloads.nproc(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "selfaffine": selfaffine.__version__,
        "git_commit": git_commit(), "blas_threads": 1,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))

    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=HERE / "_work"))
    try:
        # the traced run reports no setup_s, so it sets up once
        repeats = 1 if args.trace else SETUP_REPEATS
        imports = [import_seconds() for _ in range(repeats - args.trace)]
        setups = []
        for k in range(repeats):
            t0 = cpu_clock()
            state = workload.setup(args.seed, Path(tempfile.mkdtemp(prefix=f"setup{k}-",
                                                                    dir=workdir)))
            setups.append(cpu_clock() - t0)
        results, checks = workload.warmup(state)
        for c in checks:
            run.check(c.name, c.ok, c.detail)
        for r in results:
            run.record(r)

        if args.trace:
            metrics = traced(workload, state, run, args.seconds)
        else:
            done = timed_ops(workload, state, run, tracing.NullTracer(), args.seconds, MIN_OPS)
            if not done:
                print("\n".join(run.notes + ["error: no operation completed"]), file=sys.stderr)
                return 1
            metrics = end_to_end(workload, done, imports, setups)

        for c in workload.after(state, run.baseline):
            run.check(c.name, c.ok, c.detail)
        run.check_reference()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in run.notes:
        print(line)
    fail_ratio = tracing.ratio(run.failed, run.attempted)
    print(f"fail_ratio = {fail_ratio:.6g} ({run.failed} failed of {run.attempted} attempted)")
    if not args.trace:
        # a failed check fails the run outright, however many items passed
        metrics["success_ratio"] = {"value": 1.0 - fail_ratio if run.correct else 0.0,
                                    "unit": "ratio"}
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())

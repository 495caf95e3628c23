"""Empirical pipeline: estimator battery, recursive critical values and the
self-affinity classification for one ingested price series."""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IncompleteReport, TooShort
from .methods import BlockResult, estimate_blocks
# not called here: kept as module attributes so that perfbench's traced run,
# which rebinds analysis.build_critical_values and analysis.estimate_point,
# still finds them
from .methods import estimate_point  # noqa: F401
from .montecarlo import DEFAULT_LEVELS, CriticalValueTable, build_tables, check_levels
from .montecarlo import build_critical_values  # noqa: F401
from .rng import derive_seed
from .simulate import SimulationSpec, ar_recursive_spec, niid_spec
from .timeseries import (
    ARModel,
    PriceSeries,
    SummaryStats,
    ar_filter,
    fit_ar,
    log_returns,
    normalize_transform,
    random_reorder,
    summary_stats,
)

BATTERY = ("rra", "fa1", "fa2", "fa3", "robinson", "hill")
UNFILTERED = "unfiltered"
FILTERED = "filtered"

VERDICT_LRD = "long-range-dependent"
VERDICT_LSTABLE = "L-stable-signature"
VERDICT_WEAK = "weak-evidence"
VERDICT_NIID = "consistent-with-NIID"


@dataclass(frozen=True)
class AnalyzeConfig:
    """Knobs for one analysis run; every random choice derives from `seed`."""

    reps: int = 1000
    seed: int = 0
    levels: tuple[float, ...] = DEFAULT_LEVELS
    max_lag: int = 10
    criterion: str = "aic"
    workers: int = 1
    cache_dir: str | None = None
    series_id: str = "series"

    def __post_init__(self):
        # as floats, largest first: the order of each cell's and the report's columns
        object.__setattr__(self, "levels", check_levels(self.levels))
        if not any(math.isclose(l, 0.05, abs_tol=1e-12) for l in self.levels):
            raise ValueError("levels must include 0.05 (classification level)")
        columns = [_percent(l) for l in self.levels]
        if len(set(columns)) != len(columns):
            raise ValueError(f"levels {self.levels} share a rounded percent, which names "
                             "their report columns")


@dataclass(frozen=True)
class CellResult:
    """One (method, variant) entry of the battery."""

    method: str
    variant: str
    estimate: float | None
    cutoff_source: str
    cutoffs: tuple[tuple[float, float], ...] = ()
    rejects: tuple[tuple[float, bool], ...] = ()
    error: str | None = None

    def reject_at(self, level: float) -> bool:
        for l, flag in self.rejects:
            if math.isclose(l, level, abs_tol=1e-12):
                return flag
        raise IncompleteReport(f"no rejection flag at level {level}")


@dataclass(frozen=True)
class TestReport:
    """Full estimator battery results for one series."""

    __test__ = False  # not a pytest class, despite the name

    series_id: str
    T: int
    levels: tuple[float, ...]  # largest first, as AnalyzeConfig stores them
    summary: SummaryStats
    ar_model: ARModel
    filtered_T: int
    cells: tuple[CellResult, ...]
    fa1_reordered: float | None
    fa1_normalized: float | None
    niid_fa1_sd: float

    def cell(self, method: str, variant: str) -> CellResult | None:
        for c in self.cells:
            if c.method == method and c.variant == variant:
                return c
        return None


@dataclass(frozen=True)
class Classification:
    verdict: str
    evidence: str  # strong | weak | none
    rationale: str


def _make_cell(method: str, variant: str, result: BlockResult, table: CriticalValueTable,
               source: str, levels: tuple[float, ...]) -> CellResult:
    """The cell of `method`'s one-row `estimate_blocks` result."""
    values, errors = result
    if errors:
        exc = errors[0]
        return CellResult(method=method, variant=variant, estimate=None,
                          cutoff_source=source, error=f"{type(exc).__name__}: {exc}")
    value = float(values[0])
    cutoffs = tuple((level, table.cutoff(level)) for level in levels)
    rejects = tuple((level, value > cut) for level, cut in cutoffs)
    return CellResult(method=method, variant=variant, estimate=value,
                      cutoff_source=source, cutoffs=cutoffs, rejects=rejects)


def analyze_index(prices: PriceSeries, config: AnalyzeConfig) -> TestReport:
    """Run the estimator battery on unfiltered returns (against AR-recursive
    critical values) and on AR residuals (against NIID critical values), plus
    the FA(1) re-order/normalize diagnostics.

    A failed AR fit, or fewer than 100 AR residuals, raises its typed error
    before any null table is built."""
    returns = log_returns(prices)
    summary = summary_stats(returns)
    T = len(returns)
    ar_model = fit_ar(returns, config.max_lag, config.criterion)
    filtered = ar_filter(returns, ar_model)
    if len(filtered) < 100:
        raise TooShort(f"need at least 100 AR residuals for the battery, got {len(filtered)}")

    seed_niid = derive_seed(config.seed, 1)
    seed_rec = derive_seed(config.seed, 2)
    seed_reorder = derive_seed(config.seed, 3)

    def null_tables(spec: SimulationSpec, seed: int, methods) -> dict[str, CriticalValueTable]:
        return build_tables(spec, methods, config.reps, seed, workers=config.workers,
                            cache_dir=config.cache_dir)

    # three engine passes: each spec's replications are shared by its methods
    rec_tables = null_tables(ar_recursive_spec(ar_model, T), seed_rec, BATTERY)
    filtered_tables = null_tables(niid_spec(len(filtered)), seed_niid, BATTERY)
    niid_T = (filtered_tables if len(filtered) == T
              else null_tables(niid_spec(T), seed_niid, ("fa1",)))
    # one estimator pass per variant, as the engine estimates the null rows
    variants = ((UNFILTERED, returns, rec_tables, "ar-recursive"),
                (FILTERED, filtered, filtered_tables, "niid"))
    results = [estimate_blocks(BATTERY, series.values[None, :]) for _, series, _, _ in variants]
    cells = [_make_cell(method, variant, result[method], tables[method], source, config.levels)
             for method in BATTERY
             for (variant, _, tables, source), result in zip(variants, results)]

    # a failed re-order row leaves both diagnostics unset, a failed normalize row the second
    transformed = np.stack([random_reorder(returns, seed_reorder).values,
                            normalize_transform(returns).values])
    values, errors = estimate_blocks(("fa1",), transformed)["fa1"]
    fa1_reordered = None if 0 in errors else float(values[0])
    fa1_normalized = None if errors else float(values[1])

    return TestReport(
        series_id=config.series_id, T=T, levels=config.levels,
        summary=summary, ar_model=ar_model, filtered_T=len(filtered),
        cells=tuple(cells), fa1_reordered=fa1_reordered,
        fa1_normalized=fa1_normalized, niid_fa1_sd=niid_T["fa1"].sd)


def _required_rejects(report: TestReport) -> dict[tuple[str, str], bool]:
    need = [(m, v) for m in ("fa1", "rra", "fa2", "fa3")
            for v in (UNFILTERED, FILTERED)]
    flags: dict[tuple[str, str], bool] = {}
    for method, variant in need:
        cell = report.cell(method, variant)
        if cell is None:
            raise IncompleteReport(f"missing {method}/{variant} cell")
        if cell.estimate is None:
            raise IncompleteReport(f"{method}/{variant} cell failed: {cell.error}")
        flags[(method, variant)] = cell.reject_at(0.05)
    return flags


def classify_source(report: TestReport) -> Classification:
    """Decision matrix over the 0.05-level rejection flags.

    (a) FA1 rejects on both variants and RRA or FA2 rejects anywhere:
        long-range dependent, strong evidence.
    (b) FA1 rejects on the unfiltered variant only and RRA, FA2, FA3 all fail
        to reject: L-stable signature, weak evidence.
    (c) FA1 rejects on the unfiltered variant only, others mixed: weak evidence.
    (d) otherwise: consistent with NIID.
    """
    flags = _required_rejects(report)
    fa1_u, fa1_f = flags[("fa1", UNFILTERED)], flags[("fa1", FILTERED)]
    others = [flags[(m, v)] for m in ("rra", "fa2", "fa3")
              for v in (UNFILTERED, FILTERED)]
    corroborated = any(flags[(m, v)] for m in ("rra", "fa2")
                       for v in (UNFILTERED, FILTERED))

    if fa1_u and fa1_f and corroborated:
        verdict, evidence = VERDICT_LRD, "strong"
        rationale = ("FA(1) rejects H=0.5 on filtered and unfiltered returns "
                     "and RRA/FA(2) corroborate")
    elif fa1_u and not fa1_f and not any(others):
        verdict, evidence = VERDICT_LSTABLE, "weak"
        rationale = ("only FA(1) on unfiltered returns rejects; RRA/FA(2)/FA(3) "
                     "all fail, as expected under infinite higher moments")
    elif fa1_u and not fa1_f:
        verdict, evidence = VERDICT_WEAK, "weak"
        rationale = "FA(1) rejects on unfiltered returns only; other methods mixed"
    else:
        verdict, evidence = VERDICT_NIID, "none"
        rationale = "no coherent rejection pattern at the 0.05 level"

    rationale += "; " + _gap_notes(report)
    return Classification(verdict=verdict, evidence=evidence, rationale=rationale)


def _gap_notes(report: TestReport) -> str:
    """Re-order / normalize FA(1) gap diagnostics, sized against the NIID sd;
    `classify_source` calls it once the unfiltered FA(1) cell holds an estimate."""
    if report.fa1_reordered is None or report.fa1_normalized is None:
        return "transform diagnostics unavailable"
    estimate = report.cell("fa1", UNFILTERED).estimate
    threshold = 2.0 * report.niid_fa1_sd
    notes = []
    for name, other in (("re-order", report.fa1_reordered),
                        ("normalize", report.fa1_normalized)):
        gap = abs(estimate - other)
        size = "large" if gap > threshold else "small"
        notes.append(f"{name} gap {gap:.3f} ({size})")
    notes.append("large re-order gap supports long-range dependence, "
                 "large normalize gap supports an L-stable source")
    return "; ".join(notes)


# --- rendering -----------------------------------------------------------------

def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.6f}"


def _percent(level: float) -> int:
    """A level's percent, rounded: it names the level's report columns."""
    return int(round(level * 100))


def report_csv_rows(report: TestReport) -> list[list[str]]:
    header = ["series_id", "method", "variant", "estimate", "cutoff_source"]
    for level in report.levels:
        header.append(f"cutoff_{_percent(level):02d}")
    for level in report.levels:
        header.append(f"reject_{_percent(level):02d}")
    header.append("error")
    rows = [header]
    for cell in report.cells:
        row = [report.series_id, cell.method, cell.variant,
               _fmt(cell.estimate), cell.cutoff_source]
        cuts = dict(cell.cutoffs)
        rejs = dict(cell.rejects)
        for level in report.levels:
            row.append(_fmt(cuts.get(level)))
        for level in report.levels:
            row.append("" if level not in rejs else str(int(rejs[level])))
        row.append(cell.error or "")
        rows.append(row)
    return rows


def write_report_csv(report: TestReport, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(report_csv_rows(report))


def _stars(cell: CellResult | None, marks: list[tuple[float, str]]) -> str:
    if cell is None or cell.estimate is None:
        return "--"
    flags = dict(cell.rejects)
    for level, stars in reversed(marks):
        if flags.get(level):
            return f"{cell.estimate:.3f}{stars}"
    return f"{cell.estimate:.3f}"


def _level_text(level: float) -> str:
    """A level for the legend: two decimals (0.10), or as many as it needs."""
    text = f"{level:.2f}"
    return text if float(text) == level else f"{level:g}"


def table_text(report: TestReport) -> str:
    """Star-flagged battery table, one row per variant: the more stars, the
    smaller the level at which the cell rejects."""
    titles = {"rra": "RRA H", "fa1": "FA(1) H", "fa2": "FA(2) H",
              "fa3": "FA(3) H", "robinson": "Robinson d", "hill": "Hill H"}
    marks = [(level, "*" * k) for k, level in enumerate(report.levels, start=1)]
    width = 12
    lines = [report.series_id.ljust(12) + "".join(titles[m].rjust(width) for m in BATTERY)]
    for variant in (UNFILTERED, FILTERED):
        cells = [report.cell(m, variant) for m in BATTERY]
        lines.append(variant.ljust(12) + "".join(_stars(c, marks).rjust(width) for c in cells))
    lines.append("rejection of H0 at: "
                 + "  ".join(f"{stars} {_level_text(level)}" for level, stars in marks))
    return "\n".join(lines)


def report_json(report: TestReport, classification: Classification) -> str:
    payload = {
        "series_id": report.series_id,
        "T": report.T,
        "filtered_T": report.filtered_T,
        "summary": {
            "mean": report.summary.mean,
            "sd": report.summary.sd,
            "skewness": report.summary.skewness,
            "kurtosis": report.summary.kurtosis,
        },
        "ar_model": {
            "order": report.ar_model.order,
            "intercept": report.ar_model.intercept,
            "coefficients": list(report.ar_model.coefficients),
            "residual_sd": report.ar_model.residual_sd,
        },
        # always null, as a failed AR fit raises: kept so the report layout holds
        "ar_error": None,
        "cells": [
            {
                "method": c.method,
                "variant": c.variant,
                "estimate": c.estimate,
                "cutoff_source": c.cutoff_source,
                "cutoffs": {f"{l:g}": v for l, v in c.cutoffs},
                "rejects": {f"{l:g}": flag for l, flag in c.rejects},
                "error": c.error,
            }
            for c in report.cells
        ],
        "fa1_reordered": report.fa1_reordered,
        "fa1_normalized": report.fa1_normalized,
        "niid_fa1_sd": report.niid_fa1_sd,
        "classification": {
            "verdict": classification.verdict,
            "evidence": classification.evidence,
            "rationale": classification.rationale,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)

import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import selfaffine.analysis as analysis
import selfaffine.montecarlo as montecarlo
from selfaffine.analysis import (
    BATTERY,
    FILTERED,
    UNFILTERED,
    VERDICT_LRD,
    VERDICT_LSTABLE,
    VERDICT_NIID,
    VERDICT_WEAK,
    AnalyzeConfig,
    CellResult,
    Classification,
    TestReport,
    analyze_index,
    classify_source,
    report_csv_rows,
    report_json,
    table_text,
    write_report_csv,
)
from selfaffine.errors import (
    IncompleteReport,
    NonFiniteValue,
    NonPositiveTail,
    ZeroDispersion,
)
from selfaffine.methods import estimate_blocks
from selfaffine.timeseries import ARModel, SummaryStats, read_prices_csv

DATA = Path(__file__).parent / "data"

LEVELS = (0.10, 0.05, 0.01)


def fake_cell(method, variant, reject):
    cutoffs = tuple((l, 0.5) for l in LEVELS)
    rejects = tuple((l, reject) for l in LEVELS)
    return CellResult(method=method, variant=variant, estimate=0.55,
                      cutoff_source="niid", cutoffs=cutoffs, rejects=rejects)


def fake_report(reject_map, fa1_reordered=0.47, fa1_normalized=0.54):
    cells = tuple(fake_cell(m, v, reject_map.get((m, v), False))
                  for m in BATTERY for v in (UNFILTERED, FILTERED))
    summary = SummaryStats(mean=0.0, sd=0.01, skewness=0.0, kurtosis=3.0)
    return TestReport(series_id="fake", T=1000, levels=LEVELS, summary=summary,
                      ar_model=ARModel(order=1, intercept=0.0, coefficients=[0.1],
                                       residual_sd=0.01),
                      filtered_T=995, cells=cells,
                      fa1_reordered=fa1_reordered, fa1_normalized=fa1_normalized,
                      niid_fa1_sd=0.05)


class TestClassification:
    def test_long_range_dependent_pattern(self):
        # FA(1) and RRA reject on both variants
        rejects = {("fa1", UNFILTERED): True, ("fa1", FILTERED): True,
                   ("rra", UNFILTERED): True, ("rra", FILTERED): True}
        out = classify_source(fake_report(rejects))
        assert out.verdict == VERDICT_LRD
        assert out.evidence == "strong"

    def test_lstable_pattern(self):
        # FA(1) rejects on unfiltered only; RRA/FA(2)/FA(3) never reject
        rejects = {("fa1", UNFILTERED): True}
        out = classify_source(fake_report(rejects))
        assert out.verdict == VERDICT_LSTABLE
        assert out.evidence == "weak"

    def test_weak_mixed_pattern(self):
        rejects = {("fa1", UNFILTERED): True, ("rra", UNFILTERED): True}
        out = classify_source(fake_report(rejects))
        assert out.verdict == VERDICT_WEAK

    def test_niid_pattern(self):
        out = classify_source(fake_report({}))
        assert out.verdict == VERDICT_NIID
        assert out.evidence == "none"

    def test_filtered_only_rejection_is_niid(self):
        rejects = {("fa1", FILTERED): True}
        assert classify_source(fake_report(rejects)).verdict == VERDICT_NIID

    def test_fa1_both_without_corroboration_is_not_strong(self):
        rejects = {("fa1", UNFILTERED): True, ("fa1", FILTERED): True}
        out = classify_source(fake_report(rejects))
        assert out.verdict != VERDICT_LRD

    def test_pure_function(self):
        rejects = {("fa1", UNFILTERED): True}
        r = fake_report(rejects)
        assert classify_source(r) == classify_source(r)

    def test_incomplete_report(self):
        report = fake_report({})
        trimmed = replace(report, cells=report.cells[:3])
        with pytest.raises(IncompleteReport, match="missing"):
            classify_source(trimmed)
        # a required cell that holds an error is named with that error
        failed = CellResult(method="rra", variant=FILTERED, estimate=None,
                            cutoff_source="niid",
                            error="ZeroDispersion: constant block at scale 5")
        broken = replace(report, cells=tuple(failed if (c.method, c.variant) == ("rra", FILTERED)
                                             else c for c in report.cells))
        with pytest.raises(IncompleteReport, match="ZeroDispersion") as info:
            classify_source(broken)
        assert "missing" not in str(info.value)

    def test_gap_notes_in_rationale(self):
        rejects = {("fa1", UNFILTERED): True, ("fa1", FILTERED): True,
                   ("rra", UNFILTERED): True}
        out = classify_source(fake_report(rejects, fa1_reordered=0.30))
        assert "re-order gap" in out.rationale
        assert "large" in out.rationale


@pytest.fixture(scope="module")
def demo_report():
    prices = read_prices_csv(DATA / "prices_demo.csv")
    config = AnalyzeConfig(reps=120, seed=7, series_id="prices_demo")
    return analyze_index(prices, config)


class TestAnalyzeIndex:
    def test_battery_is_complete(self, demo_report):
        assert len(demo_report.cells) == 12
        for cell in demo_report.cells:
            assert cell.error is None, (cell.method, cell.variant, cell.error)
            assert cell.estimate is not None

    def test_cutoff_sources(self, demo_report):
        for cell in demo_report.cells:
            expected = "ar-recursive" if cell.variant == UNFILTERED else "niid"
            assert cell.cutoff_source == expected

    def test_rejection_monotone_across_levels(self, demo_report):
        for cell in demo_report.cells:
            flags = dict(cell.rejects)
            assert flags[0.01] <= flags[0.05] <= flags[0.10]

    def test_transform_diagnostics_present(self, demo_report):
        assert demo_report.fa1_reordered is not None
        assert demo_report.fa1_normalized is not None
        assert demo_report.niid_fa1_sd is not None and demo_report.niid_fa1_sd > 0

    def test_strong_long_memory_is_detected(self, demo_report):
        # fixture carries d = 0.25, far above every 0.05 cutoff
        out = classify_source(demo_report)
        assert out.verdict == VERDICT_LRD
        assert out.evidence == "strong"

    def test_deterministic(self, demo_report):
        prices = read_prices_csv(DATA / "prices_demo.csv")
        config = AnalyzeConfig(reps=120, seed=7, series_id="prices_demo")
        again = analyze_index(prices, config)
        assert report_csv_rows(again) == report_csv_rows(demo_report)

    def test_warm_cache_simulates_nothing(self, demo_report, tmp_path, monkeypatch):
        prices = read_prices_csv(DATA / "prices_demo.csv")
        cache = tmp_path / "cache"
        config = AnalyzeConfig(reps=120, seed=7, series_id="prices_demo",
                               cache_dir=str(cache))
        cold = analyze_index(prices, config)
        assert len(list(cache.iterdir())) == 13  # every null table is cached

        def no_simulation(*args, **kwargs):
            raise AssertionError("a cached table was simulated again")

        monkeypatch.setattr(montecarlo, "replicate", no_simulation)
        warm = analyze_index(prices, config)
        # a table holds its null sample, so a level never asked for is served too
        other = analyze_index(prices, AnalyzeConfig(reps=120, seed=7, levels=(0.05, 0.02),
                                                    cache_dir=str(cache)))
        assert [c.cutoffs[:1] for c in other.cells] == [c.cutoffs[1:2] for c in warm.cells]
        for report in (cold, warm):
            write_report_csv(report, tmp_path / "report.csv")
            assert (tmp_path / "report.csv").read_bytes() == \
                (DATA / "golden_report.csv").read_bytes()
        assert report_json(warm, classify_source(warm)) == \
            report_json(demo_report, classify_source(demo_report))

    def test_levels_must_include_classification_level(self):
        # the second set would name two report columns cutoff_02
        for levels in ((0.10, 0.01), (0.05, 0.025, 0.02)):
            with pytest.raises(ValueError):
                AnalyzeConfig(levels=levels)


@pytest.fixture(scope="module")
def demo_cache(tmp_path_factory):
    """A cache of the demo report's null tables, so that re-analyzing it simulates none."""
    cache = tmp_path_factory.mktemp("cache")
    demo_analysis(cache)
    return cache


def demo_analysis(cache):
    return analyze_index(read_prices_csv(DATA / "prices_demo.csv"),
                         AnalyzeConfig(reps=120, seed=7, series_id="prices_demo",
                                       cache_dir=str(cache)))


class TestOneEstimationPath:
    """The analysed series is estimated as its null rows are, by `estimate_blocks`."""

    def test_three_block_calls_and_no_point_estimate(self, demo_cache, monkeypatch, tmp_path):
        calls = []

        def counted(methods, X):
            calls.append((tuple(methods), X.shape[0]))
            return estimate_blocks(methods, X)

        def no_point_estimate(*args):
            raise AssertionError("analyze_index called estimate_point")

        monkeypatch.setattr(analysis, "estimate_blocks", counted)
        monkeypatch.setattr(analysis, "estimate_point", no_point_estimate)
        report = demo_analysis(demo_cache)
        # one battery per variant, and the two FA(1) diagnostics in one block
        assert calls == [(BATTERY, 1), (BATTERY, 1), (("fa1",), 2)]
        write_report_csv(report, tmp_path / "report.csv")
        assert (tmp_path / "report.csv").read_bytes() == \
            (DATA / "golden_report.csv").read_bytes()
        assert report_json(report, classify_source(report)).encode() == \
            (DATA / "golden_report.json").read_bytes()

    @pytest.mark.parametrize("row", [0, 1], ids=["reorder-fails", "normalize-fails"])
    def test_a_failed_diagnostic_row(self, demo_cache, demo_report, monkeypatch, row):
        def failing(methods, X):
            out = estimate_blocks(methods, X)
            if len(X) == 2:
                out["fa1"][1][row] = NonFiniteValue("estimate must be finite")
            return out

        monkeypatch.setattr(analysis, "estimate_blocks", failing)
        report = demo_analysis(demo_cache)
        assert report.cells == demo_report.cells
        assert report.fa1_normalized is None
        if row == 0:  # the re-order row fails: neither diagnostic is reported
            assert report.fa1_reordered is None
            assert classify_source(report).rationale.endswith(
                "transform diagnostics unavailable")
        else:
            assert report.fa1_reordered == demo_report.fa1_reordered

    def test_a_failed_row_is_its_cells_error(self, demo_cache, demo_report, monkeypatch):
        def failing(methods, X):
            out = estimate_blocks(methods, X)
            if X.shape == (1, demo_report.filtered_T):
                out["rra"][1][0] = ZeroDispersion("constant block at scale 5")
            return out

        monkeypatch.setattr(analysis, "estimate_blocks", failing)
        report = demo_analysis(demo_cache)
        failed = report.cell("rra", FILTERED)
        assert failed == CellResult(method="rra", variant=FILTERED, estimate=None,
                                    cutoff_source="niid",
                                    error="ZeroDispersion: constant block at scale 5")
        assert [c for c in report.cells if c is not failed] == \
            [c for c in demo_report.cells if (c.method, c.variant) != ("rra", FILTERED)]


class TestRendering:
    def test_csv_layout_matches_golden(self, demo_report, tmp_path):
        out = tmp_path / "report.csv"
        write_report_csv(demo_report, out)
        golden = (DATA / "golden_report.csv").read_bytes()
        assert out.read_bytes() == golden

    def test_json_matches_golden(self, demo_report):
        # every estimate and cutoff at full precision, where the CSV prints six decimals
        got = report_json(demo_report, classify_source(demo_report)).encode()
        assert got == (DATA / "golden_report.json").read_bytes()

    def test_csv_header(self, demo_report):
        rows = report_csv_rows(demo_report)
        assert rows[0] == ["series_id", "method", "variant", "estimate",
                           "cutoff_source", "cutoff_10", "cutoff_05", "cutoff_01",
                           "reject_10", "reject_05", "reject_01", "error"]
        assert len(rows) == 13

    def test_table_text_shape(self, demo_report):
        text = table_text(demo_report)
        assert "RRA H" in text and "Hill H" in text
        assert UNFILTERED in text and FILTERED in text

    def test_table_text_stars_follow_the_report_levels(self):
        prices = read_prices_csv(DATA / "prices_demo.csv")
        report = analyze_index(prices, AnalyzeConfig(reps=120, seed=7, levels=(0.2, 0.05)))
        lines = table_text(report).splitlines()
        assert lines[-1] == "rejection of H0 at: * 0.20  ** 0.05"
        for line, variant in zip(lines[1:3], (UNFILTERED, FILTERED)):
            flags = [dict(report.cell(m, variant).rejects) for m in BATTERY]
            assert [cell.count("*") for cell in line.split()[1:]] == \
                [2 if f[0.05] else 1 if f[0.2] else 0 for f in flags]
        # some cell rejects at 0.2 alone, and so carries one star
        assert any(dict(c.rejects)[0.2] and not dict(c.rejects)[0.05] for c in report.cells)

    def test_json_round_trip(self, demo_report):
        payload = json.loads(report_json(demo_report, classify_source(demo_report)))
        assert payload["series_id"] == "prices_demo"
        assert len(payload["cells"]) == 12
        assert payload["classification"]["verdict"]

    def test_json_keys_are_the_dataclass_fields(self, demo_report):
        def names(cls):
            return {f.name for f in fields(cls)}

        payload = json.loads(report_json(demo_report, classify_source(demo_report)))
        # each cell's maps name the levels, so the report's own levels are left out
        assert set(payload) == names(TestReport) - {"levels"} | {"ar_error", "classification"}
        assert set(payload["summary"]) == names(SummaryStats)
        assert set(payload["ar_model"]) == names(ARModel)
        assert set(payload["classification"]) == names(Classification)
        assert payload["ar_error"] is None
        for cell in payload["cells"]:
            assert set(cell) == names(CellResult)
            assert set(cell["cutoffs"]) == set(cell["rejects"]) == {"0.1", "0.05", "0.01"}

    def test_a_failed_cell_and_diagnostic_are_rendered_empty(self, demo_cache, demo_report,
                                                             monkeypatch):
        def failing(methods, X):
            out = estimate_blocks(methods, X)
            if len(X) == 2:  # the re-order row
                out["fa1"][1][0] = NonFiniteValue("estimate must be finite")
            elif X.shape == (1, demo_report.filtered_T):  # no verdict needs this hill cell
                out["hill"][1][0] = NonPositiveTail("x_(m) must be positive")
            return out

        monkeypatch.setattr(analysis, "estimate_blocks", failing)
        report = demo_analysis(demo_cache)
        payload = json.loads(report_json(report, classify_source(report)))
        error = "NonPositiveTail: x_(m) must be positive"
        cells = [c for c in payload["cells"] if (c["method"], c["variant"]) == ("hill", FILTERED)]
        assert cells == [{"cutoff_source": "niid", "cutoffs": {}, "error": error,
                          "estimate": None, "method": "hill", "rejects": {}, "variant": FILTERED}]
        assert payload["fa1_reordered"] is None and payload["fa1_normalized"] is None
        rows = [row for row in report_csv_rows(report) if row[1:3] == ["hill", FILTERED]]
        assert rows == [["prices_demo", "hill", FILTERED, "", "niid", *[""] * 6, error]]

import json
from pathlib import Path

import numpy as np
import pytest

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
    TestReport,
    analyze_index,
    classify_source,
    report_csv_rows,
    report_json,
    table_text,
    write_report_csv,
)
from selfaffine.errors import IncompleteReport
from selfaffine.timeseries import SummaryStats, read_prices_csv

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
                      ar_model=None, ar_error=None, filtered_T=995, cells=cells,
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
        trimmed = TestReport(
            series_id=report.series_id, T=report.T, levels=report.levels,
            summary=report.summary, ar_model=None, ar_error=None,
            filtered_T=None, cells=report.cells[:3],
            fa1_reordered=None, fa1_normalized=None, niid_fa1_sd=None)
        with pytest.raises(IncompleteReport):
            classify_source(trimmed)

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
        for report in (cold, warm):
            write_report_csv(report, tmp_path / "report.csv")
            assert (tmp_path / "report.csv").read_bytes() == \
                (DATA / "golden_report.csv").read_bytes()
        assert report_json(warm, classify_source(warm)) == \
            report_json(demo_report, classify_source(demo_report))

    def test_levels_must_include_classification_level(self):
        with pytest.raises(ValueError):
            AnalyzeConfig(levels=(0.10, 0.01))


class TestRendering:
    def test_csv_layout_matches_golden(self, demo_report, tmp_path):
        out = tmp_path / "report.csv"
        write_report_csv(demo_report, out)
        golden = (DATA / "golden_report.csv").read_bytes()
        assert out.read_bytes() == golden

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

    def test_json_round_trip(self, demo_report):
        payload = json.loads(report_json(demo_report, classify_source(demo_report)))
        assert payload["series_id"] == "prices_demo"
        assert len(payload["cells"]) == 12
        assert payload["classification"]["verdict"]

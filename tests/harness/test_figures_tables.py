"""Tests for figure/table generators and their text rendering."""

import pytest

from repro.harness.experiment import run_mix
from repro.harness.figures import figure_group
from repro.harness.report import (
    render_active_attacker,
    render_figure_group,
    render_sensitivity,
    render_table6,
    size_label,
)
from repro.harness.runconfig import TEST
from repro.harness.sensitivity import run_sensitivity_curve
from repro.harness.tables import (
    ActiveAttackerSummary,
    Table6,
    table6_row,
)
from repro.workloads.spec import SPEC_BENCHMARKS


@pytest.fixture(scope="module")
def mix1_result():
    """One shared small Mix 1 run for all figure/table tests."""
    return run_mix(1, TEST)


class TestFigureGroup:
    def test_panels_populated(self, mix1_result):
        group = figure_group(1, TEST, mix_result=mix1_result)
        assert group.mix_id == 1
        assert group.sensitive_count == 2
        assert group.total_demand_mb == pytest.approx(14.6, abs=1.1)
        assert len(group.rows) == 8
        assert "time" in group.geomean_speedups
        assert "untangle" in group.geomean_speedups

    def test_sensitive_flags_match_models(self, mix1_result):
        group = figure_group(1, TEST, mix_result=mix1_result)
        for row in group.rows:
            spec = row.label.split("+")[0]
            assert row.llc_sensitive == SPEC_BENCHMARKS[spec].llc_sensitive

    def test_title_matches_paper_format(self, mix1_result):
        group = figure_group(1, TEST, mix_result=mix1_result)
        assert group.title.startswith("Mix 1: 2 LLC-sensitive")
        assert "Total LLC size: 16MB" in group.title


class TestTable6:
    def test_row_extraction(self, mix1_result):
        row = table6_row(1, mix1_result)
        assert row.time_bits_per_assessment == pytest.approx(3.17, abs=0.01)
        assert row.untangle_bits_per_assessment < row.time_bits_per_assessment
        assert 0.0 < row.per_assessment_reduction <= 1.0

    def test_average_reduction(self, mix1_result):
        table = Table6(rows=[table6_row(1, mix1_result)])
        assert table.average_reduction == pytest.approx(
            table.rows[0].per_assessment_reduction
        )

    def test_empty_table(self):
        assert Table6(rows=[]).average_reduction == 0.0


class TestRendering:
    def test_size_label(self):
        assert size_label(256) == "2MB"
        assert size_label(16) == "128kB"
        assert size_label(1024) == "8MB"

    def test_render_figure_group(self, mix1_result):
        group = figure_group(1, TEST, mix_result=mix1_result)
        text = render_figure_group(group)
        assert "Mix 1" in text
        assert "gcc_2+EdDSA" in text
        assert "Geo. mean" in text

    def test_render_table6(self, mix1_result):
        table = Table6(rows=[table6_row(1, mix1_result)])
        text = render_table6(table)
        assert "Mix 1" in text
        assert "paper: 78%" in text

    def test_render_sensitivity(self):
        curve = run_sensitivity_curve(SPEC_BENCHMARKS["imagick_0"], TEST)
        text = render_sensitivity({"imagick_0": curve})
        assert "imagick_0" in text
        assert "8MB" in text

    def test_render_active_attacker(self):
        summary = ActiveAttackerSummary(
            optimized_bits_per_assessment=0.7,
            unoptimized_bits_per_assessment=3.8,
        )
        text = render_active_attacker(summary)
        assert "3.80" in text
        assert "5.4x" in text

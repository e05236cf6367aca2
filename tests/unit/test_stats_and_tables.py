"""Unit tests for the statistics helpers and table rendering."""

import pytest

from repro.analysis.stats import summarize
from repro.analysis.tables import (
    format_cell,
    render_ascii_curve,
    render_series,
    render_table,
)


class TestSummarize:
    def test_empty_returns_none(self):
        assert summarize([]) is None

    def test_single_value(self):
        stats = summarize([3.0])
        assert stats.count == 1
        assert stats.mean == 3.0
        assert stats.std == 0.0
        assert stats.minimum == stats.maximum == 3.0

    def test_known_sample(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats.mean == pytest.approx(2.5)
        assert stats.median == pytest.approx(2.5)
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.p95 == pytest.approx(3.85)

    def test_as_dict_keys(self):
        data = summarize([1.0, 2.0]).as_dict()
        assert set(data) == {"count", "mean", "std", "min", "median", "p95", "max"}


class TestFormatCell:
    def test_bool(self):
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"

    def test_none(self):
        assert format_cell(None) == "-"

    def test_float_formatting(self):
        assert format_cell(3.14159) == "3.14"

    def test_string_passthrough(self):
        assert format_cell("abc") == "abc"

    def test_int_passthrough(self):
        assert format_cell(42) == "42"


class TestRenderTable:
    def test_headers_and_rows_aligned(self):
        text = render_table(["name", "value"], [["alpha", 1], ["b", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert len(lines) == 4
        # Every data line must be at least as wide as its content columns.
        assert "alpha" in lines[2]
        assert "22" in lines[3]

    def test_title_rendered(self):
        text = render_table(["a"], [[1]], title="My table")
        assert text.splitlines()[0] == "My table"
        assert text.splitlines()[1] == "========"

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])

    def test_empty_rows_ok(self):
        text = render_table(["a", "b"], [])
        assert "a" in text

    def test_render_series(self):
        text = render_series("curve", [(0, 1.0), (1, 2.0)], x_label="t",
                             y_label="sends")
        assert "curve" in text
        assert "t" in text.splitlines()[2]

    def test_booleans_in_table(self):
        text = render_table(["ok"], [[True], [False]])
        assert "yes" in text
        assert "no" in text


class TestAsciiCurve:
    def test_empty_points(self):
        assert "no data" in render_ascii_curve([], label="x")

    def test_bars_scale_with_values(self):
        text = render_ascii_curve([(0.0, 1.0), (1.0, 10.0)], width=10)
        lines = text.splitlines()
        assert lines[1].count("#") > lines[0].count("#")

    def test_label_included(self):
        assert render_ascii_curve([(0.0, 1.0)], label="sends").startswith("sends")

    def test_zero_values_do_not_crash(self):
        text = render_ascii_curve([(0.0, 0.0), (1.0, 0.0)])
        assert "0" in text

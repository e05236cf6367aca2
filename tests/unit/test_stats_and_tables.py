"""Unit tests for the group-table mean and table rendering."""

import pytest

from repro.analysis.tables import (
    format_cell,
    render_ascii_curve,
    render_series,
    render_table,
)
from repro.campaigns.reporting import format_group_rows
from repro.simulation.metrics import pairwise_mean


class TestPairwiseMean:
    def test_empty_returns_none(self):
        assert pairwise_mean([]) is None

    def test_single_value(self):
        assert pairwise_mean([3.0]) == 3.0

    def test_known_sample(self):
        assert pairwise_mean([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_group_table_mean_is_the_pairwise_mean(self):
        latencies = {"a": [0.1] * 9 + [0.7] * 131, "b": [None, None]}
        rows = format_group_rows(latencies, mean_latency_of=lambda v: v,
                                 ok_of=bool, quiescent_of=bool)
        assert rows[0][2] == f"{pairwise_mean(latencies['a']):.3f}"
        assert rows[1][2] == "-"


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

"""Tests for repro.analysis.report."""

import pytest

from repro.analysis.report import (
    format_bar_chart,
    format_series,
    format_table,
)


class TestFormatTable:
    def test_contains_headers_and_values(self):
        text = format_table(["a", "b"], [[1, 2], [3, 4]])
        assert "a" in text and "b" in text
        assert "1" in text and "4" in text

    def test_title_is_prepended(self):
        text = format_table(["x"], [[1]], title="Table 1")
        assert text.splitlines()[0] == "Table 1"

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_floats_are_compacted(self):
        text = format_table(["v"], [[0.123456789]])
        assert "0.1235" in text

    def test_empty_rows_ok(self):
        text = format_table(["a"], [])
        assert "a" in text


class TestFormatBarChart:
    def test_bars_scale_with_values(self):
        text = format_bar_chart({"small": 1.0, "large": 10.0}, width=10)
        lines = {line.split()[0]: line for line in text.splitlines()}
        assert lines["large"].count("#") > lines["small"].count("#")

    def test_zero_values_have_no_bar(self):
        text = format_bar_chart({"zero": 0.0, "one": 1.0})
        zero_line = [line for line in text.splitlines() if line.startswith("zero")][0]
        assert "#" not in zero_line

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            format_bar_chart({"bad": -1.0})

    def test_empty_returns_title(self):
        assert format_bar_chart({}, title="nothing") == "nothing"

    def test_title_included(self):
        text = format_bar_chart({"a": 1.0}, title="Figure 2")
        assert text.splitlines()[0] == "Figure 2"


class TestFormatSeries:
    def test_short_series_prints_every_point(self):
        text = format_series([1, 2, 3], [4, 5, 6])
        assert text.count("\n") >= 4  # header + separator + 3 rows

    def test_long_series_is_downsampled(self):
        xs = list(range(1000))
        ys = list(range(1000))
        text = format_series(xs, ys, max_points=20)
        assert len(text.splitlines()) <= 25

    def test_final_point_always_kept(self):
        xs = list(range(100))
        ys = [x * 2 for x in xs]
        text = format_series(xs, ys, max_points=10)
        assert "198" in text

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_series([1, 2], [1])

    def test_empty_series_returns_title(self):
        assert format_series([], [], title="empty") == "empty"


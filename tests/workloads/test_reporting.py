"""Unit tests for report formatting."""

import pytest

from repro.workloads.reporting import (
    format_series,
    format_table,
    speedup,
)


class TestFormatTable:
    def test_alignment_and_headers(self):
        rows = [{"dataset": "uni", "time": 1.5}, {"dataset": "zipf", "time": 10.25}]
        table = format_table(rows, title="Figure X")
        lines = table.splitlines()
        assert lines[0] == "Figure X"
        assert "dataset" in lines[1]
        assert "time" in lines[1]
        assert "uni" in lines[3]
        assert "zipf" in lines[4]

    def test_missing_cells_render_empty(self):
        table = format_table([{"a": 1}, {"a": 2, "b": 3}], columns=["a", "b"])
        assert "3" in table

    def test_empty_rows(self):
        assert "(no rows)" in format_table([])
        assert format_table([], title="T").startswith("T")

    def test_column_selection(self):
        table = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in table.splitlines()[0]


class TestFormatSeries:
    def test_series_rendering(self):
        series = format_series("Uni", [(0.1, 2.5), (0.2, 3.0)])
        assert series.startswith("Uni: ")
        assert "0.1=2.5" in series


class TestSpeedupAndSummary:
    def test_speedup(self):
        assert speedup(10.0, 2.0) == pytest.approx(5.0)
        assert speedup(10.0, 0.0) == float("inf")
        assert speedup(0.0, 0.0) == 1.0

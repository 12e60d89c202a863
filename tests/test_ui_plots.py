"""Tests for ASCII figure rendering."""

from repro.experiments.plots import render_series, sparkline


class TestSparkline:
    def test_monotone_series_rises(self):
        line = sparkline([0, 1, 2, 3, 4])
        assert line[0] == "▁" and line[-1] == "█"

    def test_constant_series(self):
        assert set(sparkline([5, 5, 5])) == {"▄"}

    def test_empty(self):
        assert sparkline([]) == "(empty)"

    def test_nan_filtered(self):
        assert sparkline([float("nan"), 1.0, 2.0]) != "(empty)"

    def test_downsampling(self):
        line = sparkline(list(range(1000)), width=50)
        assert len(line) <= 50


class TestRenderSeries:
    def test_prefix_filter(self):
        series = {"a/x": ([0, 1], [1.0, 2.0]), "b/y": ([0, 1], [3.0, 4.0])}
        out = render_series(series, prefix="a/")
        assert "a/x" in out and "b/y" not in out

    def test_range_annotation(self):
        out = render_series({"s": ([0, 1, 2], [1.0, 5.0, 3.0])})
        assert "[1 .. 5]" in out

    def test_empty(self):
        assert render_series({}) == "(no series)"

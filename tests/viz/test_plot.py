"""Tests for the ASCII plotting utilities (repro.viz)."""

import numpy as np
import pytest

from repro.viz import line_plot


class TestLinePlot:
    def test_contains_title_and_legend(self):
        out = line_plot({"a": ([1, 2, 3], [1, 4, 9])}, title="squares")
        assert "squares" in out
        assert "* a" in out

    def test_two_series_distinct_markers(self):
        out = line_plot({"first": ([0, 1], [0, 1]),
                         "second": ([0, 1], [1, 0])})
        assert "* first" in out and "+ second" in out
        body = out.split("\n")
        assert any("*" in line for line in body)
        assert any("+" in line for line in body)

    def test_log_y_axis_ticks_in_original_units(self):
        out = line_plot({"ber": ([1, 2, 3], [1e-5, 1e-4, 1e-3])}, y_log=True)
        assert "0.001" in out
        assert "1e-05" in out

    def test_log_axis_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            line_plot({"a": ([1, 2], [0.0, 1.0])}, y_log=True)

    def test_nan_points_dropped(self):
        out = line_plot({"a": ([1, 2, 3], [1.0, np.nan, 3.0])})
        assert out  # renders without error

    def test_all_nan_raises(self):
        with pytest.raises(ValueError, match="finite"):
            line_plot({"a": ([1.0], [np.nan])})

    def test_empty_series_dict_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            line_plot({})

    def test_single_point_renders(self):
        out = line_plot({"dot": ([5.0], [7.0])})
        assert "*" in out

    def test_constant_series_no_divide_by_zero(self):
        out = line_plot({"flat": ([1, 2, 3], [4.0, 4.0, 4.0])})
        assert "*" in out

    def test_too_small_canvas_raises(self):
        with pytest.raises(ValueError, match="at least"):
            line_plot({"a": ([1], [1])}, width=5, height=2)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            line_plot({"a": ([1, 2], [1])})

    def test_dimensions_respected(self):
        out = line_plot({"a": ([0, 1], [0, 1])}, width=30, height=8)
        plot_rows = [l for l in out.split("\n") if "|" in l]
        assert len(plot_rows) == 8

    def test_axis_labels_rendered(self):
        out = line_plot({"a": ([0, 1], [0, 1])},
                        x_label="cycles", y_label="error rate")
        assert "cycles" in out
        assert "error rate" in out

    def test_monotone_series_renders_monotone(self):
        """The marker column order must follow the data order."""
        out = line_plot({"up": ([0, 1, 2, 3], [0, 1, 2, 3])},
                        width=20, height=10)
        rows = [l.split("|")[1] for l in out.split("\n") if "|" in l]
        # Row index of the marker per column, top=0; must be non-increasing
        # with column (y grows upward).
        positions = {}
        for r, row in enumerate(rows):
            for c, ch in enumerate(row):
                if ch == "*":
                    positions.setdefault(c, r)
        cols = sorted(positions)
        marker_rows = [positions[c] for c in cols]
        assert marker_rows == sorted(marker_rows, reverse=True)

    def test_log_x_axis_ticks_in_original_units(self):
        # Fig. 4's cycle axis spans decades.
        out = line_plot({"ber": ([1e6, 1e8], [1.0, 2.0])}, x_log=True)
        assert "1e+06" in out and "1e+08" in out

    def test_log_x_axis_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="log x-axis"):
            line_plot({"a": ([0.0, 1.0], [1.0, 2.0])}, x_log=True)

    def test_markers_cycle_past_the_marker_set(self):
        series = {f"s{i}": ([0, 1], [i, i]) for i in range(9)}
        legend = line_plot(series).split("\n")[-1]
        assert "* s0" in legend and "* s8" in legend

    def test_series_without_finite_points_left_out_of_legend(self):
        out = line_plot({"kept": ([1, 2], [1.0, 2.0]),
                         "gone": ([1.0], [np.nan])})
        assert "kept" in out and "gone" not in out

    def test_later_series_drawn_on_top(self):
        out = line_plot({"under": ([0, 1], [0, 1]),
                         "over": ([0, 1], [0, 1])})
        body = [l.split("|", 1)[1] for l in out.split("\n") if "|" in l]
        assert not any("*" in row for row in body)
        assert any("+" in row for row in body)

"""Tests for the SVG charts: polylines against per-point formatting."""

import re
import sys
import warnings

import numpy as np
from hypothesis import given, strategies as st

import oracles
from kvprune.plots import HEIGHT, MARGIN_BOTTOM, MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, WIDTH
from kvprune.plots import bar_chart, line_chart

BOX = (MARGIN_LEFT, WIDTH - MARGIN_RIGHT, MARGIN_TOP, HEIGHT - MARGIN_BOTTOM)

# Every finite value, with the awkward ones forced in: signed zeros,
# subnormals, magnitudes whose span or pad overflows, and decimals that sit
# on a rounding edge.
VALUES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 1.75e308, -1.75e308,
     sys.float_info.max, -sys.float_info.max, 1.0000000005, 0.1234567895, 2.675, 1.005, -1.5]
)


def polylines(svg):
    return re.findall(r'<polyline points="([^"]*)"', svg)


def check(series):
    """The chart draws the oracle's points, and finite tick labels, with
    no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        svg = line_chart(series, title="t", x_label="x", y_label="y")
    assert polylines(svg) == oracles.polyline_points(series, *BOX)
    assert not re.search(r"nan|inf", svg)


@st.composite
def chart_series(draw):
    out = []
    for index in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 12))
        xs = draw(st.lists(VALUES, min_size=size, max_size=size))
        ys = draw(st.lists(VALUES, min_size=size, max_size=size))
        out.append((f"s{index}", xs, ys))
    return out


class TestLineChart:
    @given(chart_series())
    def test_points_match_per_point_formatting(self, series):
        check(series)

    def test_one_point(self):
        check([("only", [0.3], [2.0])])

    def test_constant_axis_beyond_half_unit_precision(self):
        """At 2**52 and beyond, +-0.5 rounds away; the axis still has width."""
        series = [("s", [0.0], [4503599627370498.0])]
        check(series)
        assert "nan" not in polylines(line_chart(series, "t", "x", "y"))[0]

    def test_span_beyond_the_largest_float(self):
        """Spans or pads past the largest float draw inside the box."""
        check([("s", [0.0, 0.0], [-1e308, 1e308])])
        check([("s", [0.0, 1.75e308], [1.0, 2.0])])
        check([("s", [sys.float_info.max], [-sys.float_info.max])])

    def test_sweep_chart(self):
        """Three budget fractions per policy, as a sweep --svg draws them."""
        grid = [0.1, 0.25, 0.6]
        check([("csp", grid, [1.93, 1.21, 0.407]),
               ("global-topk", grid, [1.88, 1.17, 0.391])])

    def test_kde_overlay(self):
        xs = np.linspace(-0.003, 0.97, 512)
        check([("intra", xs, np.exp(-xs)), ("inter", xs, xs * xs)])


class TestBarChart:
    def test_equal_values_beyond_unit_precision(self):
        """Below -2**53, y_lo + 1 rounds back to y_lo; the axis still has a
        span, so every coordinate is finite and no warning is raised."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            svg = bar_chart(["0", "1"], [-1e20, -1e20], "t", "x", "y")
        numbers = re.findall(r'\b(?:x|y|width|height)="([^"]*)"', svg)
        assert numbers and all(np.isfinite(float(value)) for value in numbers)
        assert not re.search(r"nan|inf", svg)

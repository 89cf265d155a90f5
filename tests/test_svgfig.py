"""SVG figure tests: polyline points against a per-point reference."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antdyn.svgfig import (
    HEIGHT,
    MARGIN_BOTTOM,
    MARGIN_LEFT,
    MARGIN_RIGHT,
    MARGIN_TOP,
    WIDTH,
    Series,
    line_figure,
)

POLYLINE = re.compile(r'<polyline [^>]*points="([^"]*)"/>')


def reference_points(series, x_range, y_range):
    """One ``points`` attribute per series, mapped and formatted point by point.

    This spells out the data-to-pixel mapping with Python floats in the
    order of operations the figures have always used, so array mapping
    must reproduce it to the last printed digit.
    """
    (x_lo, x_hi), (y_lo, y_hi) = x_range, y_range
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    px_lo, px_hi = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    py_lo, py_hi = HEIGHT - MARGIN_BOTTOM, MARGIN_TOP

    def px(v):
        return px_lo + (v - x_lo) / (x_hi - x_lo) * (px_hi - px_lo)

    def py(v):
        return py_lo + (v - y_lo) / (y_hi - y_lo) * (py_hi - py_lo)

    return [
        " ".join(f"{px(float(xv)):.2f},{py(float(yv)):.2f}" for xv, yv in zip(s.x, s.y))
        for s in series
    ]


# values over many decades and of both signs, plus plain floats
_decades = st.builds(
    lambda m, e: m * 10.0**e,
    st.floats(-9.99, 9.99, allow_nan=False),
    st.integers(-9, 9),
)
_value = st.one_of(_decades, st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False))


@st.composite
def series_sets(draw):
    count = draw(st.integers(1, 4))
    series = []
    for k in range(count):
        size = draw(st.integers(1, 40))
        x = draw(st.lists(_value, min_size=size, max_size=size))
        if draw(st.booleans()):  # a constant series: the y range is empty
            y = [draw(_value)] * size
        else:
            y = draw(st.lists(_value, min_size=size, max_size=size))
        series.append(Series(label=f"s{k}", x=np.array(x), y=np.array(y)))
    return series


def assert_points_match_reference(series):
    svg = line_figure(series, title="t", xlabel="x", ylabel="y")
    x_range = (min(float(s.x.min()) for s in series), max(float(s.x.max()) for s in series))
    y_range = (min(float(s.y.min()) for s in series), max(float(s.y.max()) for s in series))
    assert POLYLINE.findall(svg) == reference_points(series, x_range, y_range)


@settings(max_examples=150, deadline=None)
@given(series_sets())
def test_line_figure_points_match_per_point_reference(series):
    assert_points_match_reference(series)


def test_line_figure_edge_cases_match_reference():
    # Pixel coordinates on or next to rounding ties of "%.2f" (odd multiples
    # of 1/8), where the last bit of the mapping decides the printed digit:
    # x spans exactly the 628 pixels of the plot area, and y is mapped back
    # from pixel offsets through the padded unit range.
    eighths = np.arange(628 * 8 + 1) / 8.0
    y_ties = np.clip(-0.04 + eighths[: 434 * 8 + 1] / 434.0 * 1.08, 0.0, 1.0)
    wave = np.sin(np.arange(2001, dtype=np.float32))
    cases = [
        [Series("x ties", eighths, eighths)],
        [Series("y ties", np.arange(y_ties.size, dtype=float), y_ties)],
        [Series("one point", np.array([3.0]), np.array([-2.0]))],
        [Series("flat", np.linspace(0.0, 1.0, 5), np.full(5, 7.0))],
        [
            Series("decades", np.logspace(-8, 8, 17), -np.logspace(-8, 8, 17)),
            Series("negative", np.array([-5.0, -1.0]), np.array([-3.0, 2.5])),
        ],
        # narrower dtypes map in double precision, as each point did on its own
        [Series("float32", np.linspace(0, 40, 2001, dtype=np.float32), wave)],
        [Series("int", np.arange(9), np.arange(9) ** 2)],
    ]
    for series in cases:
        assert_points_match_reference(series)


def test_line_figure_names_a_series_of_mismatched_length():
    series = [
        Series("fine", np.arange(3.0), np.arange(3.0)),
        Series("short y", np.arange(5.0), np.arange(3.0)),
    ]
    with pytest.raises(ValueError, match=r"^series 'short y' has 5 x values but 3 y values$"):
        line_figure(series, title="t", xlabel="x", ylabel="y")

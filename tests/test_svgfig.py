"""SVG figure tests: polyline points and quiver arrows against per-point references."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antdyn import svgfig
from antdyn.presets import PHASE_PRESETS, phase_grid
from antdyn.stability import find_equilibria
from antdyn.svgfig import (
    HEIGHT,
    MARGIN_BOTTOM,
    MARGIN_LEFT,
    MARGIN_RIGHT,
    MARGIN_TOP,
    WIDTH,
    Series,
    line_figure,
    quiver_figure,
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


def _ramp(label, y, x=None):
    y = np.asarray(y, dtype=float)
    return Series(label, np.arange(float(y.size)) if x is None else np.asarray(x), y)


CANNOT_DRAW = {
    "empty": ([_ramp("a", [0.0, 1.0]), _ramp("none", [])], r"^series 'none' is empty$"),
    "nan": ([_ramp("gap", [0.0, np.nan, 1.0])], r"^series 'gap' has a non-finite value$"),
    "inf": (
        [_ramp("a", [0.0, 1.0]), _ramp("far", [1.0, 1.0], x=[0.0, np.inf])],
        r"^series 'far' has a non-finite value$",
    ),
    # the padded y span overflows though the data span is finite
    "padded-overflow": (
        [_ramp("wide", [-0.87e308, 0.87e308])],
        r"^series 'wide' span y from -8.7e\+307 to 8.7e\+307, which cannot be mapped",
    ),
    # the x span of two series together overflows
    "joint-overflow": (
        [_ramp("left", [1.0], x=[-1e308]), _ramp("right", [1.0], x=[1e308])],
        r"^series 'left' and 'right' span x from -1e\+308 to 1e\+308, which cannot be mapped",
    ),
    # a constant so large that adding the unit span leaves it unchanged
    "flat-huge": (
        [_ramp("flat", [1e17, 1e17])],
        r"^series 'flat' span y from 1e\+17 to 1e\+17, which cannot be mapped to pixels$",
    ),
    # a positive span whose tick step, a fifth of it, underflows to zero
    "subnormal": (
        [_ramp("tiny", [1.0, 2.0], x=[0.0, 5e-324])],
        r"^series 'tiny' span x from 0 to 4.94066e-324, which cannot be mapped to pixels$",
    ),
    # a tick step below the spacing of the doubles, which would not advance
    "below-spacing": (
        [_ramp("coarse", [1.0, 2.0], x=[1e16, 1e16 + 2])],
        r"^series 'coarse' span x from 1e\+16 to 1e\+16, which cannot be mapped to pixels$",
    ),
}


@pytest.mark.parametrize("case", sorted(CANNOT_DRAW))
def test_line_figure_names_a_series_it_cannot_draw(case):
    series, message = CANNOT_DRAW[case]
    with pytest.raises(ValueError, match=message):
        line_figure(series, title="t", xlabel="x", ylabel="y")


def reference_quiver(x1, x2, u, v, markers, title, xlabel, ylabel, caption=None):
    """The quiver figure drawn node by node, as the figures have always been drawn."""
    frame = svgfig._Frame((float(x1[0]), float(x1[-1])), (float(x2[0]), float(x2[-1])))
    parts = svgfig._axes(frame, title, xlabel, ylabel)
    cell = min(
        (frame.px_hi - frame.px_lo) / max(len(x1) - 1, 1),
        (frame.py_lo - frame.py_hi) / max(len(x2) - 1, 1),
    )
    shaft = 0.38 * cell
    for i, xv in enumerate(x1):
        for j, yv in enumerate(x2):
            du, dv = float(u[i, j]), float(v[i, j])
            norm = math.hypot(du, dv)
            px, py = frame.x(float(xv)), frame.y(float(yv))
            if norm == 0.0:
                parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="1.6" fill="#888888"/>')
                continue
            ex, ey = du / norm, -dv / norm
            tip_x, tip_y = px + shaft * ex, py + shaft * ey
            parts.append(
                f'<line x1="{px - shaft * ex:.2f}" y1="{py - shaft * ey:.2f}" '
                f'x2="{tip_x:.2f}" y2="{tip_y:.2f}" stroke="#1f77b4" stroke-width="1.2"/>'
            )
            head = 0.32 * shaft
            left = (-ey, ex)
            for sgn in (1.0, -1.0):
                bx = tip_x - head * (ex + 0.6 * sgn * left[0])
                by = tip_y - head * (ey + 0.6 * sgn * left[1])
                parts.append(
                    f'<line x1="{tip_x:.2f}" y1="{tip_y:.2f}" x2="{bx:.2f}" y2="{by:.2f}" '
                    'stroke="#1f77b4" stroke-width="1.2"/>'
                )
    for mx, my, label in markers:
        px, py = frame.x(mx), frame.y(my)
        parts.append(
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4.5" fill="#d62728" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px + 8:.2f}" y="{py - 6:.2f}" font-size="12" fill="#000000">{label}</text>'
        )
    if caption:
        parts.append(
            f'<text x="{MARGIN_LEFT}" y="{HEIGHT - 8}" font-size="11" '
            f'fill="#555555">{caption}</text>'
        )
    return svgfig._document(parts)


@pytest.mark.parametrize("name", sorted(PHASE_PRESETS))
def test_quiver_figure_is_the_node_loop(name):
    preset = PHASE_PRESETS[name]
    grid = phase_grid(preset.model, bounds=preset.bounds, resolution=preset.resolution)
    markers = [
        (float(eq.point[0]), float(eq.point[1]), f"mu_{eq.index + 1}")
        for eq in find_equilibria(preset.model)
    ]
    assert markers
    u, v = grid.u.copy(), grid.v.copy()
    # zero-speed nodes get a dot: zeros of both signs, and a zero beside a tiny value
    u[0, :4], v[0, :4] = [0.0, -0.0, 0.0, 5e-324], [0.0, 0.0, -0.0, 0.0]
    u[-1, -1] = v[-1, -1] = 0.0
    for field in [(grid.u, grid.v), (u, v)]:
        args = (grid.x1, grid.x2, *field, markers)
        labels = dict(title=name, xlabel="x_1", ylabel="x_2", caption=preset.description)
        got = quiver_figure(*args, **labels)
        assert got == reference_quiver(*args, **labels)
    assert got.count('r="1.6"') == 4


def test_quiver_figure_takes_the_norm_as_math_hypot():
    # The arrow's tail lies so near 235.825 px that a norm one ulp off, as
    # np.hypot gives here, prints 235.82.
    node = np.zeros(1)
    args = (node, node, np.array([[-8.634626152031256]]), np.ones((1, 1)), [])
    got = quiver_figure(*args, title="t", xlabel="x", ylabel="y")
    assert got == reference_quiver(*args, title="t", xlabel="x", ylabel="y")
    assert '<line x1="235.83" y1="484.90" x2="-91.83" y2="446.95"' in got


def test_quiver_figure_rejects_a_field_of_another_shape():
    x = np.array([0.0, 1.0])
    field = np.ones((3, 3))
    shape = r"^u and v must have shape \(len\(x1\), len\(x2\)\) = \(2, 2\), "
    with pytest.raises(ValueError, match=shape + r"got \(3, 3\) and \(3, 3\)$"):
        quiver_figure(x, x, field, field, [], title="t", xlabel="x", ylabel="y")
    with pytest.raises(ValueError, match=r"got \(2, 2\) and \(2,\)$"):
        quiver_figure(x, x, np.ones((2, 2)), np.ones(2), [], title="t", xlabel="x", ylabel="y")


def test_quiver_figure_names_the_first_non_finite_node():
    x = np.array([0.0, 1.0])
    u, v = np.ones((2, 2)), np.ones((2, 2))
    u[0, 0] = np.nan
    v[1, 0] = np.inf
    first = r"^field at node \(0, 0\), x = \(0, 0\), is not finite: \(u, v\) = \(nan, 1\)$"
    with pytest.raises(ValueError, match=first):
        quiver_figure(x, x, u, v, [], title="t", xlabel="x", ylabel="y")
    u[0, 0] = 1.0
    with pytest.raises(ValueError, match=r"^field at node \(1, 0\), x = \(1, 0\), .* \(1, inf\)$"):
        quiver_figure(x, x, u, v, [], title="t", xlabel="x", ylabel="y")


@pytest.mark.parametrize(
    "x1, message",
    [
        ([0.0, 5e-324], r"^x1 spans 0 to 4.94066e-324, which cannot be mapped to pixels$"),
        ([1e16, 1e16 + 2], r"^x1 spans 1e\+16 to 1e\+16, which cannot be mapped to pixels$"),
        ([0.0, np.inf], r"^x1 spans 0 to inf, "),
    ],
)
def test_quiver_figure_names_an_axis_it_cannot_draw(x1, message):
    field = np.ones((2, 2))
    with pytest.raises(ValueError, match=message):
        quiver_figure(np.array(x1), np.array([0.0, 1.0]), field, field, [], "t", "x", "y")

"""Minimal deterministic SVG figures: polyline charts and vector-field grids.

No plotting dependency; the output is plain SVG markup with fixed
geometry, so identical inputs give byte-identical files.  Every pixel
coordinate is spelled exactly as ``"%.2f"`` spells it: polyline points
by the vectorized kernel ``_fixed._format_fixed``, and quiver arrows,
ticks and other one-off coordinates by f-strings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._fixed import _format_fixed

__all__ = ["Series", "line_figure", "quiver_figure"]

PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]

WIDTH = 880
HEIGHT = 540
MARGIN_LEFT = 72
MARGIN_RIGHT = 180
MARGIN_TOP = 48
MARGIN_BOTTOM = 58


@dataclass(frozen=True, eq=False)
class Series:
    label: str
    x: np.ndarray
    y: np.ndarray


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    # 1-2-5 ladder
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / max(target - 1, 1)
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for factor in (1.0, 2.0, 5.0, 10.0):
        step = factor * magnitude
        if span / step <= target - 1:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(value) < 1e-12 * span else value)
        value += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:.6g}"


class _Frame:
    """Data-to-pixel mapping for one plot area.

    ``x`` and ``y`` are plain arithmetic, so they map a scalar and an
    array alike, with the same operations in the same order.
    """

    def __init__(self, x_range, y_range, width=WIDTH, height=HEIGHT):
        self.width = width
        self.height = height
        x_lo, x_hi = x_range
        y_lo, y_hi = y_range
        if x_hi <= x_lo:
            x_hi = x_lo + 1.0
        if y_hi <= y_lo:
            y_hi = y_lo + 1.0
        pad = 0.04 * (y_hi - y_lo)
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo - pad, y_hi + pad
        self.px_lo = MARGIN_LEFT
        self.px_hi = width - MARGIN_RIGHT
        self.py_lo = height - MARGIN_BOTTOM
        self.py_hi = MARGIN_TOP

    def x(self, v):
        frac = (v - self.x_lo) / (self.x_hi - self.x_lo)
        return self.px_lo + frac * (self.px_hi - self.px_lo)

    def y(self, v):
        frac = (v - self.y_lo) / (self.y_hi - self.y_lo)
        return self.py_lo + frac * (self.py_hi - self.py_lo)


def _axes(frame: _Frame, title: str, xlabel: str, ylabel: str) -> list[str]:
    parts = [
        f'<rect x="{frame.px_lo}" y="{frame.py_hi}" width="{frame.px_hi - frame.px_lo}" '
        f'height="{frame.py_lo - frame.py_hi}" fill="white" stroke="#444444"/>'
    ]
    for tick in _nice_ticks(frame.x_lo, frame.x_hi):
        px = frame.x(tick)
        parts.append(
            f'<line x1="{px:.2f}" y1="{frame.py_hi}" x2="{px:.2f}" y2="{frame.py_lo}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{frame.py_lo + 18}" font-size="12" '
            f'text-anchor="middle" fill="#222222">{_fmt(tick)}</text>'
        )
    for tick in _nice_ticks(frame.y_lo, frame.y_hi):
        py = frame.y(tick)
        parts.append(
            f'<line x1="{frame.px_lo}" y1="{py:.2f}" x2="{frame.px_hi}" y2="{py:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{frame.px_lo - 6}" y="{py + 4:.2f}" font-size="12" '
            f'text-anchor="end" fill="#222222">{_fmt(tick)}</text>'
        )
    mid_x = 0.5 * (frame.px_lo + frame.px_hi)
    parts.append(
        f'<text x="{mid_x:.2f}" y="26" font-size="15" text-anchor="middle" '
        f'fill="#000000">{title}</text>'
    )
    parts.append(
        f'<text x="{mid_x:.2f}" y="{frame.py_lo + 40}" font-size="13" '
        f'text-anchor="middle" fill="#000000">{xlabel}</text>'
    )
    mid_y = 0.5 * (frame.py_lo + frame.py_hi)
    parts.append(
        f'<text x="20" y="{mid_y:.2f}" font-size="13" text-anchor="middle" '
        f'fill="#000000" transform="rotate(-90 20 {mid_y:.2f})">{ylabel}</text>'
    )
    return parts


def _document(parts: Sequence[str], width=WIDTH, height=HEIGHT) -> str:
    body = "\n".join(parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n{body}\n</svg>\n'
    )


def _drawable(lo: float, hi: float) -> bool:
    """Whether ``hi - lo``, an axis span of a frame, maps to pixels and ticks.

    A tick step is at least a fifth of the span, and it must be no finer
    than the spacing of the doubles at the span's ends, or the ticks
    would not advance.
    """
    span = hi - lo
    return 0.0 < span < math.inf and span / 5 > math.ulp(max(abs(lo), abs(hi)))


def _check_span(axis: str, lo: float, hi: float, series, bounds) -> None:
    """Raise unless the axis span ``lo .. hi`` of the frame is :func:`_drawable`."""
    if not _drawable(lo, hi):
        first = series[int(np.argmin(bounds[:, 0]))].label
        last = series[int(np.argmax(bounds[:, 1]))].label
        names = repr(first) if first == last else f"{first!r} and {last!r}"
        raise ValueError(
            f"series {names} span {axis} from {bounds[:, 0].min():.6g} to "
            f"{bounds[:, 1].max():.6g}, which cannot be mapped to pixels"
        )


_POINT_SEP = np.frombuffer(b", ", np.uint8)


def line_figure(
    series: Sequence[Series],
    title: str,
    xlabel: str,
    ylabel: str,
    caption: Optional[str] = None,
) -> str:
    """Polyline chart with axes, grid and a legend column.

    Each series needs as many x values as y values, at least one, all
    finite, and the union of the series' ranges must map to pixels;
    otherwise ``ValueError`` names the series.  Every polyline
    coordinate is spelled exactly as ``"%.2f"`` spells it, by the
    vectorized kernel ``_fixed._format_fixed``.
    """
    if not series:
        raise ValueError("need at least one series")
    xy, bounds = [], []
    for s in series:
        x, y = np.asarray(s.x, dtype=float), np.asarray(s.y, dtype=float)
        if len(x) != len(y):
            raise ValueError(f"series {s.label!r} has {len(x)} x values but {len(y)} y values")
        if not len(x):
            raise ValueError(f"series {s.label!r} is empty")
        bounds.append((x.min(), x.max(), y.min(), y.max()))
        if not np.isfinite(bounds[-1]).all():
            raise ValueError(f"series {s.label!r} has a non-finite value")
        xy.append((x, y))
    bounds = np.array(bounds)
    lo, hi = bounds.min(axis=0).tolist(), bounds.max(axis=0).tolist()
    frame = _Frame((lo[0], hi[1]), (lo[2], hi[3]))
    _check_span("x", frame.x_lo, frame.x_hi, series, bounds[:, 0:2])
    _check_span("y", frame.y_lo, frame.y_hi, series, bounds[:, 2:4])
    parts = _axes(frame, title, xlabel, ylabel)
    for k, (s, (x, y)) in enumerate(zip(series, xy)):
        color = PALETTE[k % len(PALETTE)]
        cells = np.column_stack((frame.x(x), frame.y(y))).ravel()
        # "," within a point, a space between points and a NUL, which
        # spells nothing, after the last
        sep = np.tile(_POINT_SEP, len(x))
        sep[-1] = 0
        points = _format_fixed(cells, sep).decode("ascii")
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        ly = MARGIN_TOP + 16 + 18 * k
        lx = frame.px_hi + 14
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2.5"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-size="12" fill="#222222">{s.label}</text>'
        )
    if caption:
        parts.append(
            f'<text x="{MARGIN_LEFT}" y="{HEIGHT - 8}" font-size="11" '
            f'fill="#555555">{caption}</text>'
        )
    return _document(parts)


def quiver_figure(
    x1: np.ndarray,
    x2: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    markers: Sequence[tuple[float, float, str]],
    title: str,
    xlabel: str,
    ylabel: str,
    caption: Optional[str] = None,
) -> str:
    """Direction-field chart: one fixed-length arrow per grid node.

    ``u`` and ``v`` hold the field at node ``(x1[i], x2[j])`` in row
    ``i``, column ``j``, so their shape must be ``(len(x1), len(x2))``.
    Arrows show direction only; nodes where the field vanishes get a dot.
    ``markers`` are annotated points (equilibria).  A non-finite field
    value raises ``ValueError`` naming its node, and node coordinates
    whose span cannot be drawn raise one naming the axis.  Every
    coordinate is spelled exactly as ``"%.2f"`` spells it, node by node.
    """
    shape = (len(x1), len(x2))
    if np.shape(u) != shape or np.shape(v) != shape:
        raise ValueError(
            f"u and v must have shape (len(x1), len(x2)) = {shape}, "
            f"got {np.shape(u)} and {np.shape(v)}"
        )
    bad = np.argwhere(~(np.isfinite(u) & np.isfinite(v)))
    if bad.size:
        i, j = bad[0].tolist()
        raise ValueError(
            f"field at node ({i}, {j}), x = ({float(x1[i]):.6g}, {float(x2[j]):.6g}), "
            f"is not finite: (u, v) = ({float(u[i, j]):.6g}, {float(v[i, j]):.6g})"
        )
    frame = _Frame((float(x1[0]), float(x1[-1])), (float(x2[0]), float(x2[-1])))
    axes = (("x1", x1, frame.x_lo, frame.x_hi), ("x2", x2, frame.y_lo, frame.y_hi))
    for name, nodes, lo, hi in axes:
        if not _drawable(lo, hi):
            raise ValueError(
                f"{name} spans {float(nodes[0]):.6g} to {float(nodes[-1]):.6g}, "
                "which cannot be mapped to pixels"
            )
    parts = _axes(frame, title, xlabel, ylabel)
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
            ex, ey = du / norm, -dv / norm  # pixel y points down
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
    return _document(parts)

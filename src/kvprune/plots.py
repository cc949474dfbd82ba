"""Self-contained SVG charts, no plotting dependency.

Two shapes cover everything the CLI emits: line charts (sweep curves, KDE
overlays) and bar charts (per-layer divergences). Output is deterministic:
fixed geometry, fixed palette, every coordinate formatted the same way.
"""

from __future__ import annotations

import math

import numpy as np

WIDTH = 720
HEIGHT = 440
MARGIN_LEFT = 72
MARGIN_RIGHT = 24
MARGIN_TOP = 44
MARGIN_BOTTOM = 58

PALETTE = ("#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377")

_BG = "#ffffff"
_FG = "#222222"
_GRID = "#dddddd"
_FLOAT_MAX = float(np.finfo(np.float64).max)


def _fmt(x: float) -> str:
    return "%.2f" % x


def _label(x: float) -> str:
    return "%.4g" % x


def _pad_range(lo: float, hi: float) -> tuple[float, float]:
    """The axis range of data spanning [lo, hi], padded 4 % each way and
    clipped to the finite floats."""
    lo, hi = float(lo), float(hi)  # Python floats overflow to inf silently
    if not np.isfinite(lo) or not np.isfinite(hi):
        raise ValueError("chart data must be finite")
    if hi == lo:
        pad = 0.5
        if lo - pad == hi + pad:  # at or beyond 2**52, +-0.5 rounds away
            pad = 0.04 * abs(lo)
    else:
        pad = 0.04 * (hi - lo)
        if pad == math.inf:  # the span is beyond the largest float
            pad = 0.04 * hi - 0.04 * lo
    return max(lo - pad, -_FLOAT_MAX), min(hi + pad, _FLOAT_MAX)


class _Axis:
    """Maps [lo, hi] onto [0, 1]. Where |lo| + |hi| passes the largest
    float, so that the span or a tick could, the axis is measured in half
    units: halving is exact but for subnormals, which so wide a range cannot
    tell apart anyway."""

    def __init__(self, lo: float, hi: float):
        lo, hi = float(lo), float(hi)
        self.scale = 1.0 if abs(lo) + abs(hi) < math.inf else 0.5
        self.lo, self.hi = lo * self.scale, hi * self.scale

    # frac takes a scalar or a float64 array; same operations either way.
    def frac(self, v):
        return (v * self.scale - self.lo) / (self.hi - self.lo)

    def ticks(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, 5) / self.scale


class _Frame:
    """Maps data coordinates onto the plot rectangle and draws the chrome."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        self.x_axis, self.y_axis = _Axis(x_lo, x_hi), _Axis(y_lo, y_hi)
        self.left = MARGIN_LEFT
        self.right = WIDTH - MARGIN_RIGHT
        self.top = MARGIN_TOP
        self.bottom = HEIGHT - MARGIN_BOTTOM

    # x and y take a scalar or a float64 array; same operations either way.
    def x(self, v: float) -> float:
        return self.left + self.x_axis.frac(v) * (self.right - self.left)

    def y(self, v: float) -> float:
        return self.bottom - self.y_axis.frac(v) * (self.bottom - self.top)

    def chrome(self, title: str, x_label: str, y_label: str, x_ticks: bool = True) -> list:
        parts = [
            f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="{_BG}"/>',
            f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
            f'font-size="16" fill="{_FG}">{_esc(title)}</text>',
        ]
        for tick in self.x_axis.ticks() if x_ticks else ():
            px = self.x(tick)
            parts.append(
                f'<line x1="{_fmt(px)}" y1="{self.top}" x2="{_fmt(px)}" '
                f'y2="{self.bottom}" stroke="{_GRID}" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{_fmt(px)}" y="{self.bottom + 18}" text-anchor="middle" '
                f'font-size="11" fill="{_FG}">{_label(tick)}</text>'
            )
        for tick in self.y_axis.ticks():
            py = self.y(tick)
            parts.append(
                f'<line x1="{self.left}" y1="{_fmt(py)}" x2="{self.right}" '
                f'y2="{_fmt(py)}" stroke="{_GRID}" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{self.left - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
                f'font-size="11" fill="{_FG}">{_label(tick)}</text>'
            )
        parts.append(
            f'<rect x="{self.left}" y="{self.top}" width="{self.right - self.left}" '
            f'height="{self.bottom - self.top}" fill="none" stroke="{_FG}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{(self.left + self.right) / 2:.0f}" y="{HEIGHT - 14}" '
            f'text-anchor="middle" font-size="13" fill="{_FG}">{_esc(x_label)}</text>'
        )
        parts.append(
            f'<text x="18" y="{(self.top + self.bottom) / 2:.0f}" text-anchor="middle" '
            f'font-size="13" fill="{_FG}" transform="rotate(-90 18 '
            f'{(self.top + self.bottom) / 2:.0f})">{_esc(y_label)}</text>'
        )
        return parts


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _document(parts: list) -> str:
    body = "\n".join(parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">\n{body}\n</svg>\n'
    )


def line_chart(series, title: str, x_label: str, y_label: str) -> str:
    """series: list of (label, xs, ys) triples sharing axes."""
    if not series:
        raise ValueError("line_chart needs at least one series")
    xs_all = np.concatenate([np.asarray(xs, dtype=np.float64) for _, xs, _ in series])
    ys_all = np.concatenate([np.asarray(ys, dtype=np.float64) for _, _, ys in series])
    if xs_all.size == 0:
        raise ValueError("line_chart series are empty")
    x_lo, x_hi = _pad_range(xs_all.min(), xs_all.max())
    y_lo, y_hi = _pad_range(ys_all.min(), ys_all.max())
    frame = _Frame(x_lo, x_hi, y_lo, y_hi)
    parts = frame.chrome(title, x_label, y_label)
    for index, (label, xs, ys) in enumerate(series):
        color = PALETTE[index % len(PALETTE)]
        px = frame.x(np.asarray(xs, dtype=np.float64)).tolist()
        py = frame.y(np.asarray(ys, dtype=np.float64)).tolist()
        points = " ".join("%.2f,%.2f" % point for point in zip(px, py))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        ly = frame.top + 16 + 16 * index
        parts.append(
            f'<line x1="{frame.right - 150}" y1="{ly - 4}" x2="{frame.right - 126}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2.5"/>'
        )
        parts.append(
            f'<text x="{frame.right - 120}" y="{ly}" font-size="11" '
            f'fill="{_FG}">{_esc(str(label))}</text>'
        )
    return _document(parts)


def bar_chart(labels, values, title: str, x_label: str, y_label: str) -> str:
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("bar_chart needs at least one value")
    if len(labels) != values.size:
        raise ValueError("labels and values must pair up")
    y_lo = min(0.0, float(values.min()))
    y_hi = float(values.max())
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
        if y_hi == y_lo:  # at or below -2**53, +1 rounds away
            y_hi = y_lo + 0.04 * abs(y_lo)
    frame = _Frame(0.0, float(values.size), y_lo, y_hi)
    parts = frame.chrome(title, x_label, y_label, x_ticks=False)
    slot = (frame.right - frame.left) / values.size
    bar_width = 0.7 * slot
    base = frame.y(0.0)
    for index, value in enumerate(values):
        x0 = frame.left + index * slot + (slot - bar_width) / 2
        y0 = frame.y(float(value))
        top, height = (y0, base - y0) if value >= 0 else (base, y0 - base)
        parts.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(top)}" width="{_fmt(bar_width)}" '
            f'height="{_fmt(height)}" fill="{PALETTE[0]}"/>'
        )
        parts.append(
            f'<text x="{_fmt(x0 + bar_width / 2)}" y="{frame.bottom + 18}" '
            f'text-anchor="middle" font-size="11" fill="{_FG}">{_esc(str(labels[index]))}</text>'
        )
    return _document(parts)

"""Standalone, byte-deterministic SVG line charts from sweep tables.

Hand-rolled on purpose: the output for a given table must be reproducible to
the byte, so no plotting library (with its ids and timestamps) is involved.
One polyline per scheme, circle markers at the data points, fixed palette,
fixed size and title; the x axis is labeled with the swept variable.
"""

import math

from .model import SchemeId
from .sweep import SweepRow

__all__ = ["emit_svg"]

_TITLE = "equal per-cell rate"
_Y_LABEL = "r_eq [bits/s/Hz]"
_WIDTH = 640
_HEIGHT = 440

# one fixed color per scheme, keyed by enum order
_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")

_MARGIN_LEFT = 62.0
_MARGIN_RIGHT = 16.0
_MARGIN_TOP = 28.0
_MARGIN_BOTTOM = 46.0


def _nice_step(span: float, target: int = 6) -> float:
    raw = span / max(target, 1)
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * magnitude:
            return mult * magnitude
    return 10.0 * magnitude


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


def _num(x: float) -> str:
    return f"{x:.2f}"


def _label(x: float) -> str:
    return f"{x:g}"


def emit_svg(rows: list[SweepRow], path) -> None:
    """Render r_eq versus the sweep value, one polyline per scheme."""
    if not rows:
        raise ValueError("cannot plot an empty table")

    by_scheme = {}
    for row in rows:
        by_scheme.setdefault(row.scheme, []).append((row.value, row.r_eq))
    # (scheme, [(x, y), ...]) in enum order
    series = [(scheme, by_scheme[scheme]) for scheme in SchemeId if scheme in by_scheme]

    xs = [row.value for row in rows]
    ys = [row.r_eq for row in rows]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi <= x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    y_lo = 0.0
    y_hi = max(max(ys), 1e-9) * 1.05

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def to_x(v: float) -> float:
        return _MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w

    def to_y(v: float) -> float:
        return _MARGIN_TOP + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<text x="{_num(_WIDTH / 2)}" y="18" font-family="sans-serif" '
        f'font-size="14" text-anchor="middle">{_TITLE}</text>',
    ]

    # axes, grid and ticks
    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP + plot_h
    x1, y1 = _MARGIN_LEFT + plot_w, _MARGIN_TOP
    for t in _ticks(x_lo, x_hi):
        px = to_x(t)
        parts.append(
            f'<line x1="{_num(px)}" y1="{_num(y0)}" x2="{_num(px)}" y2="{_num(y1)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_num(px)}" y="{_num(y0 + 16)}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{_label(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        py = to_y(t)
        parts.append(
            f'<line x1="{_num(x0)}" y1="{_num(py)}" x2="{_num(x1)}" y2="{_num(py)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_num(x0 - 6)}" y="{_num(py + 4)}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{_label(t)}</text>'
        )
    parts.append(
        f'<rect x="{_num(x0)}" y="{_num(y1)}" width="{_num(plot_w)}" '
        f'height="{_num(plot_h)}" fill="none" stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_num(x0 + plot_w / 2)}" y="{_num(_HEIGHT - 10)}" '
        f'font-family="sans-serif" font-size="12" text-anchor="middle">{rows[0].sweep_var}</text>'
    )
    parts.append(
        f'<text x="16" y="{_num(y1 + plot_h / 2)}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {_num(y1 + plot_h / 2)})">{_Y_LABEL}</text>'
    )

    # data series
    scheme_index = {scheme: i for i, scheme in enumerate(SchemeId)}
    for scheme, points in series:
        color = _PALETTE[scheme_index[scheme] % len(_PALETTE)]
        coords = [(_num(to_x(x)), _num(to_y(y))) for x, y in points]
        if len(coords) >= 2:
            joined = " ".join(f"{px},{py}" for px, py in coords)
            parts.append(
                f'<polyline points="{joined}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        for px, py in coords:
            parts.append(f'<circle cx="{px}" cy="{py}" r="2.5" fill="{color}"/>')

    # legend, top-left inside the plot area
    for i, (scheme, _) in enumerate(series):
        color = _PALETTE[scheme_index[scheme] % len(_PALETTE)]
        ly = y1 + 14 + 16 * i
        parts.append(
            f'<line x1="{_num(x0 + 10)}" y1="{_num(ly)}" x2="{_num(x0 + 34)}" '
            f'y2="{_num(ly)}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_num(x0 + 40)}" y="{_num(ly + 4)}" font-family="sans-serif" '
            f'font-size="11">{scheme.value}</text>'
        )

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")

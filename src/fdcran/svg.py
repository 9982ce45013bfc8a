"""Standalone, byte-deterministic SVG line charts from sweep tables.

Hand-rolled on purpose: the output for a given table must be reproducible to
the byte, so no plotting library (with its ids and timestamps) is involved.
One polyline per scheme, circle markers at the data points, fixed palette,
fixed size and title; the x axis is labeled with the swept variable.
Coordinates are mapped as plain floats, whose arithmetic gives numpy's
elementwise bits, so a chart imports no numpy.
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
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return ticks


_num = "{:.2f}".format  # a coordinate: two decimals, a C-level call per number


def _coord(v) -> str:
    """A coordinate of a line or text: an int as it is, a float to two decimals."""
    return str(v) if isinstance(v, int) else _num(v)


def _line(x1, y1, x2, y2, stroke: str, width: int) -> str:
    return (
        f'<line x1="{_coord(x1)}" y1="{_coord(y1)}" x2="{_coord(x2)}" y2="{_coord(y2)}" '
        f'stroke="{stroke}" stroke-width="{width}"/>'
    )


def _text(x, y, size: int, body: str, anchor: str | None = None, extra: str = "") -> str:
    align = f' text-anchor="{anchor}"' if anchor else ""
    return (
        f'<text x="{_coord(x)}" y="{_coord(y)}" font-family="sans-serif" '
        f'font-size="{size}"{align}{extra}>{body}</text>'
    )


def emit_svg(rows: list[SweepRow], path) -> None:
    """Render r_eq versus the sweep value, one polyline per scheme."""
    if not rows:
        raise ValueError("cannot plot an empty table")

    by_scheme = {}
    for row in rows:
        by_scheme.setdefault(row.scheme, []).append((row.value, row.r_eq))
    # (color, scheme, [(x, y), ...]) in enum order, the color keyed by that order
    series = [(_PALETTE[i], s, by_scheme[s]) for i, s in enumerate(SchemeId) if s in by_scheme]

    xs = [row.value for row in rows]
    x_lo, x_hi = min(xs), max(xs)
    ulp = math.ulp(max(abs(x_lo), abs(x_hi)))
    if not (x_hi - x_lo) / 6 > ulp:  # one value, or a span too fine for a tick step
        pad = max(0.5, 16 * ulp)  # keeps the tick step above every tick's ulp
        x_lo, x_hi = x_lo - pad, x_hi + pad
    y_hi = max(max(row.r_eq for row in rows), 1e-9) * 1.05

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def to_x(v: float) -> float:
        return _MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w

    def to_y(v: float) -> float:
        return _MARGIN_TOP + plot_h - v / y_hi * plot_h

    # the plot area runs from (x0, y0) at bottom left to (x1, y1) at top right
    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP + plot_h
    x1, y1 = _MARGIN_LEFT + plot_w, _MARGIN_TOP
    y_mid = y1 + plot_h / 2
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        _text(_WIDTH / 2, 18, 14, _TITLE, "middle"),
    ]
    # grid and tick labels
    for t in _ticks(x_lo, x_hi):
        px = to_x(t)
        parts += [_line(px, y0, px, y1, "#dddddd", 1), _text(px, y0 + 16, 11, f"{t:g}", "middle")]
    for t in _ticks(0.0, y_hi):
        py = to_y(t)
        parts += [_line(x0, py, x1, py, "#dddddd", 1), _text(x0 - 6, py + 4, 11, f"{t:g}", "end")]
    parts += [
        f'<rect x="{_num(x0)}" y="{_num(y1)}" width="{_num(plot_w)}" '
        f'height="{_num(plot_h)}" fill="none" stroke="#333333" stroke-width="1"/>',
        _text(x0 + plot_w / 2, _HEIGHT - 10.0, 12, rows[0].sweep_var, "middle"),
        _text(16, y_mid, 12, _Y_LABEL, "middle", f' transform="rotate(-90 16 {_num(y_mid)})"'),
    ]

    # data series
    for color, _, points in series:
        xs, ys = zip(*points)
        px, py = ([_num(to(v)) for v in c] for to, c in ((to_x, xs), (to_y, ys)))  # formatted once
        if len(points) >= 2:
            joined = " ".join(map(",".join, zip(px, py)))
            parts.append(
                f'<polyline points="{joined}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        parts += [f'<circle cx="{x}" cy="{y}" r="2.5" fill="{color}"/>' for x, y in zip(px, py)]

    # legend, top-left inside the plot area
    for i, (color, s, _) in enumerate(series):
        ly = y1 + 14 + 16 * i
        parts += [_line(x0 + 10, ly, x0 + 34, ly, color, 2), _text(x0 + 40, ly + 4, 11, s.value)]

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")

"""Minimal self-contained SVG line plots (axes, ticks, legend, optional log y).

Just enough for monotone rate/information curves, from a list of (label,
xs, ys) series; no plotting dependency.  On a log axis, points with y <= 0
break the polyline instead of being clamped.  The file is written a piece
of curves at a time, the coordinates as ``digits.f2`` cells (``'%.2f'``).
"""

from __future__ import annotations

import bisect
import itertools
import math

import numpy as np

from . import digits
from .errors import DomainError

PALETTE = [
    "#1f77b4",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
    "#bcbd22",
    "#e377c2",
]

WIDTH, HEIGHT = 860, 520
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 190, 40, 55
SVG_POINTS = 8192  # points per piece of the curves' text: the file is never held whole


def escape(text: str) -> str:
    """Escape &, < and > for SVG text content (& first)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _nice_step(span: float) -> float:
    raw = span / 5.0
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            return mult * mag
    return 10.0 * mag


def _linear_ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    ticks = []
    for d in range(math.floor(math.log10(lo)), math.ceil(math.log10(hi)) + 1):
        t = 10.0**d
        if lo <= t <= hi:
            ticks.append(t)
    return ticks or [lo, hi]


def _fmt_tick(v: float) -> str:
    if v == 0.0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.0e}"
    return f"{v:g}"


def write_line_plot(
    path: str,
    series: list[tuple[str, np.ndarray, np.ndarray]],
    x_label: str,
    y_label: str,
    title: str = "",
    log_y: bool = False,
) -> None:
    """Render the series, each (label, xs, ys) with its points in any order,
    to an SVG file at path: the header, whose ticks need the ranges of all
    points, then the curves a piece at a time, then the end.  The file is
    opened once no check can skip the plot.  All pixel coordinates are
    computed as arrays by the scalar ``px``/``py`` operations in their
    order, so each has the scalar bits, and written as ``'%.2f'`` gives
    them, by ``digits.f2``."""
    if not series:
        raise DomainError("cannot plot an empty series list")

    sizes = [len(xs) for _, xs, _ in series]
    curve = np.repeat(np.arange(len(series)), sizes)
    xs = np.concatenate([x for _, x, _ in series], dtype=float)
    ys = np.concatenate([y for _, _, y in series], dtype=float)
    # every series in the order of sorted(points): a stable sort by (x, y) of
    # only the series not already in it (a NaN always takes the sort)
    ordered = (xs[:-1] < xs[1:]) | (xs[:-1] == xs[1:]) & (ys[:-1] <= ys[1:])
    sort = np.isin(curve, curve[1:][~ordered & (curve[:-1] == curve[1:])])
    order = np.flatnonzero(sort)
    order = order[np.lexsort((ys[order], xs[order], curve[order]))]
    xs[sort], ys[sort] = xs[order], ys[order]
    shown = ys > 0.0 if log_y else np.ones(ys.size, dtype=bool)
    if not shown.any():
        raise DomainError("no plottable points (log axis with no positive values?)")

    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys[shown].min()), float(ys[shown].max())
    if x_hi - x_lo <= 1e-9 * abs(x_lo):  # a range too narrow for ticks to step through
        x_hi = x_lo + max(1.0, 1e-9 * abs(x_lo))
    if log_y:
        pad = (y_hi / y_lo) ** 0.05 if y_hi > y_lo else 2.0
        y_lo, y_hi = y_lo / pad, y_hi * pad
    else:  # a range too narrow for ticks to step through is padded as equal values are
        flat = y_hi - y_lo <= 1e-9 * abs(y_lo)
        pad = max(1.0, 1e-9 * abs(y_lo)) if flat else 0.05 * (y_hi - y_lo) or 1.0
        y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B
    axis = np.log10 if log_y else float
    y_0, y_1 = axis(y_lo), axis(y_hi)

    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):  # y on the axis scale: log10(y) on a log axis
        return MARGIN_T + (1.0 - (y - y_0) / (y_1 - y_0)) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="24" text-anchor="middle" '
            f'font-size="15">{escape(title)}</text>'
        )

    # axes box
    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black"/>'
    )

    for t in _linear_ticks(x_lo, x_hi):
        x = px(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{MARGIN_T + plot_h}" x2="{x:.1f}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{MARGIN_T + plot_h + 18}" text-anchor="middle">'
            f"{_fmt_tick(t)}</text>"
        )
    y_ticks = _log_ticks(y_lo, y_hi) if log_y else _linear_ticks(y_lo, y_hi)
    for t in y_ticks:
        y = py(axis(t))
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{y:.1f}" x2="{MARGIN_L}" y2="{y:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{y + 4:.1f}" text-anchor="end">{_fmt_tick(t)}</text>'
        )

    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle">'
        f"{escape(x_label)}</text>"
    )
    parts.append(
        f'<text x="18" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.1f})">{escape(y_label)}</text>'
    )

    # legend entries whose baseline lies above the plot box's bottom edge; when
    # the curves outnumber them, the last one says how many are not listed
    legend_rows = (plot_h - 14) // 16 + 1
    listed = len(series) if len(series) <= legend_rows else legend_rows - 1
    lx = MARGIN_L + plot_w + 10
    bounds = [0, *itertools.accumulate(sizes)]  # series i holds points bounds[i] to bounds[i + 1]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        first = 0
        while first < len(series):
            # a piece: series first to last - 1, at most SVG_POINTS points or
            # one longer series.  A run of shown points is one polyline (a
            # circle if one point long); its coordinates are rows of one byte
            # matrix: the ``digits.f2`` cells, a comma and a space or line break
            last = max(first + 1, bisect.bisect_right(bounds, bounds[first] + SVG_POINTS) - 1)
            kept = bounds[first] + np.flatnonzero(shown[bounds[first] : bounds[last]])
            owner = curve[kept]
            step = (np.diff(kept, prepend=-2) != 1) | (np.diff(owner, prepend=-1) != 0)
            starts = np.flatnonzero(step)
            y_shown = np.log10(ys[kept]) if log_y else ys[kept]
            ends = np.full((kept.size, 1), ord(" "), np.uint8)
            ends[starts - 1] = ord("\n")  # the last point's, ends[-1], is the end of the text
            columns = [digits.f2(px(xs[kept])), ",", digits.f2(py(y_shown)), ends]
            text = digits.text(digits.side_by_side(columns, kept.size))
            runs: list[list[str]] = [[] for _ in range(first, last)]
            for k, run in zip(owner[starts].tolist(), text.split("\n")):
                runs[k - first].append(run)
            for i, (label, _, _), segments in zip(itertools.count(first), series[first:last], runs):
                color = PALETTE[i % len(PALETTE)]
                for run in segments:
                    if " " in run:
                        parts.append(f'<polyline points="{run}" fill="none" '
                                     f'stroke="{color}" stroke-width="1.6"/>')
                    else:
                        cx, cy = run.split(",")
                        parts.append(f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>')
                if i >= listed:
                    continue
                ly = MARGIN_T + 14 + 16 * i
                parts.append(
                    f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                    f'stroke="{color}" stroke-width="2"/>'
                )
                parts.append(f'<text x="{lx + 23}" y="{ly}">{escape(label)}</text>')
            fh.write("".join(f"{part}\n" for part in parts))
            parts, first = [], last
        if listed < len(series):
            parts.append(
                f'<text x="{lx + 23}" y="{MARGIN_T + 14 + 16 * listed}">'
                f"\u2026 and {len(series) - listed} more</text>"
            )
        fh.write("".join(f"{part}\n" for part in [*parts, "</svg>"]))

"""Minimal self-contained SVG line plots (axes, ticks, legend, optional log y).

Just enough for monotone rate/information curves; no plotting dependency.
Callers pass a list of (label, points) series.  On a log axis, points with
y <= 0 break the polyline instead of being clamped.
"""

from __future__ import annotations

import math

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
    if hi <= lo:
        hi = lo + 1.0
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
    series: list[tuple[str, list[tuple[float, float]]]],
    x_label: str,
    y_label: str,
    title: str = "",
    log_y: bool = False,
) -> None:
    """Render the series to an SVG file at path."""
    if not series:
        raise DomainError("cannot plot an empty series list")

    xs = [p[0] for _, pts in series for p in pts]
    if log_y:
        ys = [p[1] for _, pts in series for p in pts if p[1] > 0.0]
    else:
        ys = [p[1] for _, pts in series for p in pts]
    if not xs or not ys:
        raise DomainError("no plottable points (log axis with no positive values?)")

    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if log_y:
        pad = (y_hi / y_lo) ** 0.05 if y_hi > y_lo else 2.0
        y_lo, y_hi = y_lo / pad, y_hi * pad
    else:
        pad = 0.05 * (y_hi - y_lo) or 1.0
        y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        if log_y:
            frac = (math.log10(y) - math.log10(y_lo)) / (math.log10(y_hi) - math.log10(y_lo))
        else:
            frac = (y - y_lo) / (y_hi - y_lo)
        return MARGIN_T + (1.0 - frac) * plot_h

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
        y = py(t)
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

    for i, (label, pts) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        segments: list[list[tuple[float, float]]] = [[]]
        for x, y in sorted(pts):
            if log_y and y <= 0.0:
                if segments[-1]:
                    segments.append([])
                continue
            segments[-1].append((px(x), py(y)))
        for seg in segments:
            if len(seg) >= 2:
                coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in seg)
                parts.append(
                    f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.6"/>'
                )
            elif len(seg) == 1:
                parts.append(
                    f'<circle cx="{seg[0][0]:.2f}" cy="{seg[0][1]:.2f}" r="2.5" fill="{color}"/>'
                )
        ly = MARGIN_T + 14 + 16 * i
        lx = MARGIN_L + plot_w + 10
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 23}" y="{ly}">{escape(label)}</text>')

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")

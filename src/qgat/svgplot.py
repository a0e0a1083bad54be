"""Self-contained SVG line plots with error bars (no plotting stack).

Figures are derived purely from already-written CSV data, so they can be
regenerated offline; the SVG is plain text with absolute coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .files import atomic_write

COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 150, 40, 55
TICKS = 5  # per axis


@dataclass
class Series:
    label: str
    x: list[float]
    mean: list[float]
    std: list[float]


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (TICKS - 1)
    return [lo + i * step for i in range(TICKS)]


def line_plot(series: list[Series], *, title: str, xlabel: str, ylabel: str,
              path: str | Path) -> None:
    xs = [v for s in series for v in s.x]
    ys = [m + sd for s in series for m, sd in zip(s.mean, s.std)]
    ys += [m - sd for s in series for m, sd in zip(s.mean, s.std)]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    px_w = WIDTH - MARGIN_L - MARGIN_R
    px_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * px_w

    def sy(y: float) -> float:
        return MARGIN_T + (1.0 - (y - y_lo) / (y_hi - y_lo)) * px_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="22" text-anchor="middle" font-size="15">{title}</text>',
    ]
    axis_y = HEIGHT - MARGIN_B
    parts.append(
        f'<line x1="{MARGIN_L}" y1="{axis_y}" x2="{WIDTH - MARGIN_R}" y2="{axis_y}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" y2="{axis_y}" stroke="black"/>'
    )
    for t in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{sx(t):.1f}" y1="{axis_y}" x2="{sx(t):.1f}" y2="{axis_y + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{sx(t):.1f}" y="{axis_y + 18}" text-anchor="middle">{t:g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{sy(t):.1f}" x2="{MARGIN_L}" y2="{sy(t):.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 9}" y="{sy(t) + 4:.1f}" text-anchor="end">{t:.3g}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_L + px_w / 2}" y="{HEIGHT - 12}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_T + px_h / 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {MARGIN_T + px_h / 2})">{ylabel}</text>'
    )

    for i, s in enumerate(series):
        color = COLORS[i % len(COLORS)]
        pts = " ".join(f"{sx(x):.1f},{sy(m):.1f}" for x, m in zip(s.x, s.mean))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        for x, m, sd in zip(s.x, s.mean, s.std):
            parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(m):.1f}" r="3" fill="{color}"/>')
            if sd > 0:
                top, bot = sy(m + sd), sy(m - sd)
                cx = sx(x)
                parts.append(
                    f'<line x1="{cx:.1f}" y1="{top:.1f}" x2="{cx:.1f}" y2="{bot:.1f}" '
                    f'stroke="{color}" stroke-width="1"/>'
                )
                for yy in (top, bot):
                    parts.append(
                        f'<line x1="{cx - 4:.1f}" y1="{yy:.1f}" x2="{cx + 4:.1f}" y2="{yy:.1f}" '
                        f'stroke="{color}" stroke-width="1"/>'
                    )
        ly = MARGIN_T + 16 * i
        lx = WIDTH - MARGIN_R + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 28}" y="{ly + 4}">{s.label}</text>')

    parts.append("</svg>")
    with atomic_write(path) as fh:
        fh.write("\n".join(parts))

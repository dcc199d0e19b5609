"""Minimal deterministic SVG line plots: polylines, axes, reference lines.

CSV is the contract of record; these plots exist for eyeballing runs,
so the writer is deliberately tiny and produces byte-stable output for
identical inputs (fixed float formatting, no timestamps or ids).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 36, 48

DASH = {
    "solid": None,
    "dash": "8,5",
    "dot": "2,4",
    "dashdot": "8,4,2,4",
}


def _fmt(value: float) -> str:
    return format(float(value), ".6g")


def _dash_attr(dash: str) -> str:
    """The ``stroke-dasharray`` attribute of a named dash; empty if solid."""
    pattern = DASH.get(dash)
    return f' stroke-dasharray="{pattern}"' if pattern else ""


class Series:
    """One polyline: y-values over the shared x grid."""

    def __init__(self, y, label: str, color: str, dash: str = "solid"):
        self.y = np.asarray(y, dtype=float)
        self.label = label
        self.color = color
        self.dash = dash


class RefLine:
    """Horizontal reference line at a constant y."""

    def __init__(self, y: float, label: str, color: str, dash: str = "dash"):
        self.y = float(y)
        self.label = label
        self.color = color
        self.dash = dash


def line_plot(
    path,
    x,
    series: list[Series],
    ref_lines: list[RefLine] | None = None,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> Path:
    """Write an SVG plot of the given series; returns the output path."""
    x = np.asarray(x, dtype=float)
    ref_lines = ref_lines or []
    ys = [s.y for s in series] + [np.full_like(x, r.y) for r in ref_lines]
    y_all = np.concatenate(ys) if ys else np.array([0.0, 1.0])
    y_lo, y_hi = float(np.min(y_all)), float(np.max(y_all))
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    x_lo, x_hi = float(np.min(x)), float(np.max(x))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(v):
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.1f}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    # axis tick labels at the corners plus midpoints
    for frac in (0.0, 0.5, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{HEIGHT - MARGIN_B + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(xv)}</text>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 6}" y="{sy(yv) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(yv)}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 10}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {MARGIN_T + plot_h / 2:.1f})">{ylabel}</text>'
        )

    for ref in ref_lines:
        y_px = sy(min(max(ref.y, y_lo), y_hi))
        parts.append(
            f'<line x1="{MARGIN_L}" y1="{y_px:.2f}" x2="{MARGIN_L + plot_w}" '
            f'y2="{y_px:.2f}" stroke="{ref.color}" stroke-width="1.2"'
            f"{_dash_attr(ref.dash)}/>"
        )

    for s in series:
        points = " ".join(
            f"{sx(xv):.2f},{sy(yv):.2f}" for xv, yv in zip(x, s.y) if np.isfinite(yv)
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{s.color}" '
            f'stroke-width="1.5"{_dash_attr(s.dash)}/>'
        )

    legend_y = MARGIN_T + 14
    for item in list(series) + list(ref_lines):
        parts.append(
            f'<line x1="{MARGIN_L + plot_w - 150}" y1="{legend_y - 4}" '
            f'x2="{MARGIN_L + plot_w - 126}" y2="{legend_y - 4}" '
            f'stroke="{item.color}" stroke-width="1.5"{_dash_attr(item.dash)}/>'
        )
        parts.append(
            f'<text x="{MARGIN_L + plot_w - 120}" y="{legend_y}" '
            f'font-family="sans-serif" font-size="11">{item.label}</text>'
        )
        legend_y += 16

    parts.append("</svg>")
    out = Path(path)
    out.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return out

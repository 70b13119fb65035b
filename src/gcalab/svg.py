"""Minimal self-contained SVG plotting: scatters and box plots.

The CSV tables are the authoritative analysis output; these renderers exist
so reports are viewable without a plotting stack. Only the two primitives the
reports need are provided.
"""

from __future__ import annotations

import html
from pathlib import Path

import numpy as np

from .errors import ContractError
from .files import write_atomic

WIDTH, HEIGHT = 640, 440
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 70, 24, 40, 56
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
_PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM


def _expand(lo: float, hi: float) -> tuple[float, float]:
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ContractError(f"cannot scale non-finite axis range [{lo}, {hi}]")
    if lo == hi:
        pad = abs(lo) * 0.1 or 0.5
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.06
    return lo - pad, hi + pad


def _escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as entities: all that SVG text content needs."""
    return html.escape(text, quote=False)


def _fmt(value: float) -> str:
    return f"{value:.4g}"


class _Canvas:
    """Accumulates SVG fragments over a fixed axes frame."""

    def __init__(self, title: str, xlabel: str, ylabel: str, xlim, ylim):
        self.x_lo, self.x_hi = xlim
        self.y_lo, self.y_hi = ylim
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2}" y="22" text-anchor="middle" font-size="15">{_escape(title)}</text>',
            f'<text x="{MARGIN_LEFT + _PLOT_W / 2}" y="{HEIGHT - 12}" text-anchor="middle" '
            f'font-size="12">{_escape(xlabel)}</text>',
            f'<text x="16" y="{MARGIN_TOP + _PLOT_H / 2}" text-anchor="middle" font-size="12" '
            f'transform="rotate(-90 16 {MARGIN_TOP + _PLOT_H / 2})">{_escape(ylabel)}</text>',
            f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{_PLOT_W}" height="{_PLOT_H}" '
            f'fill="none" stroke="#333"/>',
        ]

    def px(self, x: float) -> float:
        frac = (x - self.x_lo) / (self.x_hi - self.x_lo)
        return MARGIN_LEFT + frac * _PLOT_W

    def py(self, y: float) -> float:
        frac = (y - self.y_lo) / (self.y_hi - self.y_lo)
        return MARGIN_TOP + (1.0 - frac) * _PLOT_H

    def x_ticks(self, count: int = 5) -> None:
        for value in np.linspace(self.x_lo, self.x_hi, count):
            x = self.px(value)
            self.parts.append(
                f'<line x1="{x:.1f}" y1="{MARGIN_TOP + _PLOT_H}" x2="{x:.1f}" '
                f'y2="{MARGIN_TOP + _PLOT_H + 5}" stroke="#333"/>'
            )
            self.parts.append(
                f'<text x="{x:.1f}" y="{MARGIN_TOP + _PLOT_H + 18}" text-anchor="middle" '
                f'font-size="11">{_fmt(value)}</text>'
            )

    def y_ticks(self, count: int = 5) -> None:
        for value in np.linspace(self.y_lo, self.y_hi, count):
            y = self.py(value)
            self.parts.append(
                f'<line x1="{MARGIN_LEFT - 5}" y1="{y:.1f}" x2="{MARGIN_LEFT}" y2="{y:.1f}" stroke="#333"/>'
            )
            self.parts.append(
                f'<text x="{MARGIN_LEFT - 8}" y="{y + 4:.1f}" text-anchor="end" '
                f'font-size="11">{_fmt(value)}</text>'
            )

    def finish(self) -> str:
        return "\n".join(self.parts + ["</svg>"])


def scatter_svg(
    series: dict[str, list[tuple[float, float]]],
    xlabel: str,
    ylabel: str,
    title: str,
) -> str:
    """Scatter plot of one or more named point series with a legend."""
    all_points = [p for pts in series.values() for p in pts]
    if not all_points:
        raise ContractError("scatter_svg needs at least one point")
    xs = [p[0] for p in all_points]
    ys = [p[1] for p in all_points]
    canvas = _Canvas(title, xlabel, ylabel, _expand(min(xs), max(xs)), _expand(min(ys), max(ys)))
    canvas.x_ticks()
    canvas.y_ticks()
    for index, (label, points) in enumerate(series.items()):
        color = PALETTE[index % len(PALETTE)]
        for x, y in points:
            canvas.parts.append(
                f'<circle cx="{canvas.px(x):.1f}" cy="{canvas.py(y):.1f}" r="3.5" '
                f'fill="{color}" fill-opacity="0.75"/>'
            )
        legend_y = MARGIN_TOP + 14 + 16 * index
        canvas.parts.append(
            f'<circle cx="{MARGIN_LEFT + 12}" cy="{legend_y - 4}" r="4" fill="{color}"/>'
        )
        canvas.parts.append(
            f'<text x="{MARGIN_LEFT + 22}" y="{legend_y}" font-size="11">{_escape(label)}</text>'
        )
    return canvas.finish()


def box_svg(boxes: dict[str, dict[str, float]], ylabel: str, title: str) -> str:
    """Box-and-whisker plot; each value is a five-number summary dict."""
    if not boxes:
        raise ContractError("box_svg needs at least one box")
    for label, summary in boxes.items():
        missing = {"min", "q1", "median", "q3", "max"} - set(summary)
        if missing:
            raise ContractError(f"box {label!r} missing keys {sorted(missing)}")
    lo = min(summary["min"] for summary in boxes.values())
    hi = max(summary["max"] for summary in boxes.values())
    canvas = _Canvas(title, "", ylabel, (0.0, float(len(boxes))), _expand(lo, hi))
    canvas.y_ticks()
    half_width = 0.18
    for index, (label, summary) in enumerate(boxes.items()):
        center = index + 0.5
        cx = canvas.px(center)
        left = canvas.px(center - half_width)
        right = canvas.px(center + half_width)
        color = PALETTE[index % len(PALETTE)]
        y_min, y_max = canvas.py(summary["min"]), canvas.py(summary["max"])
        y_q1, y_q3 = canvas.py(summary["q1"]), canvas.py(summary["q3"])
        y_med = canvas.py(summary["median"])
        canvas.parts.extend(
            [
                f'<line x1="{cx:.1f}" y1="{y_min:.1f}" x2="{cx:.1f}" y2="{y_q1:.1f}" stroke="#333"/>',
                f'<line x1="{cx:.1f}" y1="{y_q3:.1f}" x2="{cx:.1f}" y2="{y_max:.1f}" stroke="#333"/>',
                f'<line x1="{left:.1f}" y1="{y_min:.1f}" x2="{right:.1f}" y2="{y_min:.1f}" stroke="#333"/>',
                f'<line x1="{left:.1f}" y1="{y_max:.1f}" x2="{right:.1f}" y2="{y_max:.1f}" stroke="#333"/>',
                f'<rect x="{left:.1f}" y="{y_q3:.1f}" width="{right - left:.1f}" '
                f'height="{abs(y_q1 - y_q3):.1f}" fill="{color}" fill-opacity="0.45" stroke="#333"/>',
                f'<line x1="{left:.1f}" y1="{y_med:.1f}" x2="{right:.1f}" y2="{y_med:.1f}" '
                f'stroke="#111" stroke-width="2"/>',
                f'<text x="{cx:.1f}" y="{MARGIN_TOP + _PLOT_H + 18}" text-anchor="middle" '
                f'font-size="11">{_escape(label)}</text>',
            ]
        )
    return canvas.finish()


def write_svg(path: str | Path, content: str) -> Path:
    return write_atomic(path, content)

"""Minimal deterministic SVG line charts.

Simple polylines with axes, ticks and a legend. The bytes are part of a
run's output: every figure's SVGs must stay identical from run to run and
across refactors, and tests/oracles.py keeps the per-point formatting that
each polyline must match. A series' pixel coordinates are computed as whole
arrays, in the same operations and order as for a single point, so each
double is the one the per-point form gives.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

WIDTH, HEIGHT = 640, 420
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 64, 16, 32, 44
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
N_TICKS = 5


def _ticks(lo: float, hi: float) -> list[float]:
    if hi == lo:
        return [lo]
    return [lo + (hi - lo) * i / (N_TICKS - 1) for i in range(N_TICKS)]


def _widened(lo: float, hi: float) -> tuple[float, float]:
    """The range [lo, hi], padded on each side by max(1, |lo|, |hi|) when it
    has (nearly) no width; a pad of 1 would vanish in the rounding of values
    above 2**53."""
    if math.isclose(lo, hi, rel_tol=0, abs_tol=1e-300):
        pad = max(1.0, abs(lo), abs(hi))
        return lo - pad, hi + pad
    return lo, hi


def _fmt(x: float) -> str:
    if x == 0:
        return "0"
    if abs(x) >= 1e4 or abs(x) < 1e-3:
        return f"{x:.2e}"
    return f"{x:.4g}"


def _fixed2(values: np.ndarray) -> list[str]:
    """Each value as "{:.2f}"."""
    return list(map(format, values.tolist(), repeat(".2f")))


def line_chart(title: str, xlabel: str, ylabel: str, series, metadata: dict | None = None) -> str:
    """Render labeled (x, y) series as an SVG document string.

    series is an iterable of (label, x_values, y_values); metadata key/value
    pairs are embedded as a leading XML comment.
    """
    series = [(label, np.asarray(x, float), np.asarray(y, float)) for label, x, y in series]
    xs = np.concatenate([x for _, x, _ in series])
    ys = np.concatenate([y for _, _, y in series])
    x_lo, x_hi = _widened(float(xs.min()), float(xs.max()))
    y_lo, y_hi = _widened(float(ys.min()), float(ys.max()))
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    # px and py take a scalar or a whole array, with the same rounding.
    def px(x):
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
    ]
    if metadata:
        pairs = " ".join(f"{key}: {value}" for key, value in metadata.items())
        parts.append(f"<!-- {pairs} -->")
    parts += [
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    axis = (
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444" stroke-width="1"/>'
    )
    parts.append(axis)
    for tx in _ticks(x_lo, x_hi):
        x = px(tx)
        parts.append(
            f'<line x1="{x:.1f}" y1="{MARGIN_TOP + plot_h}" x2="{x:.1f}" '
            f'y2="{MARGIN_TOP + plot_h + 4}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{MARGIN_TOP + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        y = py(ty)
        parts.append(
            f'<line x1="{MARGIN_LEFT - 4}" y1="{y:.1f}" x2="{MARGIN_LEFT}" '
            f'y2="{y:.1f}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(ty)}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.1f}" y="{HEIGHT - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {MARGIN_TOP + plot_h / 2:.1f})">{ylabel}</text>'
    )
    x_row, x_text = None, []
    for i, (label, x, y) in enumerate(series):
        color = COLORS[i % len(COLORS)]
        # Arithmetic on Python floats never warns; on arrays it must not either.
        with np.errstate(all="ignore"):
            if x is not x_row:  # series that share their x array share its text
                x_row, x_text = x, _fixed2(px(x))
            points = " ".join(map(",".join, zip(x_text, _fixed2(py(y)))))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT + plot_w - 6}" y="{MARGIN_TOP + 16 + 16 * i}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

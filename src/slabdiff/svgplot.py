"""Minimal deterministic SVG line charts.

Simple polylines with axes, ticks and a legend. The bytes are part of a
run's output: every figure's SVGs must stay identical from run to run and
across refactors, and tests/oracles.py keeps the per-point formatting that
each polyline must match. A series' pixel coordinates are computed as whole
arrays, in the same operations and order as for a single point, so each
double is the one the per-point form gives.

A polyline's points text, the pairs f"{px:.2f},{py:.2f}", is formed in a
fixed number of numpy calls per chart, not one format call per coordinate.
The series that share an x array form one (series x points) block. Each
coordinate becomes k = rint(100*|x|) as int64, and its sign, integer
digits, point, two fraction digits and separator become cells of a uint8
matrix, read from digit lookup tables. A cell the text does not use holds
0, so a series' text is its row's bytes with the 0 bytes deleted, decoded
once. A coordinate keeps format's own text when it is non-finite, when
|x| >= 1e6, or when 100*|x| lies within 1e-6 of a rounding tie, where rint
of the rounded product might not round as format's exact decimal does.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import groupby

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


# Fixed-point text. A value with |x| < EXACT_BELOW rounds to an integer
# k = round(100*|x|) <= 10**8, whose integer part ip = k // 100 has at most 7
# digits. So "{:.2f}" and a separator fit 12 one-byte cells, held as three
# 4-cell words, each read from a lookup table:
#     [sign, ip at 10**6..10**4] [ip at 10**3..10**0] [".", 2 fraction digits, separator]
# A cell that the text does not use holds 0, and deleting the 0 bytes leaves
# the text.
EXACT_BELOW = 1e6
TIE_BAND = 1e-6


def _words(cells) -> np.ndarray:
    """Rows of 4 one-byte cells, each as one uint32 word."""
    return np.ascontiguousarray(cells, np.uint8).view(np.uint32).ravel()


def _digits(places: int, lead: int) -> np.ndarray:
    """Row n: the ASCII digits of n at the places 10**(places-1)..1, for n below
    10**places, with 0 in the cells above its leading digit, except those
    below place `lead`."""
    digits = np.indices((10,) * places, dtype=np.uint8).reshape(places, -1).T + ord("0")
    p = 10 ** np.arange(places - 1, -1, -1)
    return digits * ((np.arange(10**places)[:, None] >= p) | (p < lead))


@cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The digit lookup tables (heads, bodies, tails), built on first use.

    They take about 90 KB, which a process that draws no chart never needs.
    heads[hi + 1000 * negative]: the sign and ip's digits from
    hi = ip // 10**4. bodies[lo + 10**4 * (hi > 0)]: ip's last 4 digits,
    lo = ip % 10**4, with its leading zeros blank only when hi is 0.
    tails[f] | separator: the point and the fraction digits f = k % 100.
    """
    heads = _words(np.column_stack((np.repeat([0, ord("-")], 1000),
                                    np.tile(_digits(3, lead=1), (2, 1)))))
    bodies = _words(np.concatenate((_digits(4, lead=10), _digits(4, lead=10_000))))
    tails = _words(np.column_stack((np.full(100, ord(".")), _digits(2, lead=100), np.zeros(100))))
    return heads, bodies, tails


def _fixed2_words(values: np.ndarray, sep: str) -> tuple[np.ndarray, np.ndarray]:
    """Each value's "{:.2f}" text and then sep, as a (..., 3) array of words;
    and where that text is exact.

    It is exact where the value is finite, |x| < EXACT_BELOW and 100*|x| is
    more than TIE_BAND from a half-integer. The product 100*|x| is then off
    its exact value by under 1e-8, so it rounds to the k that format's
    correctly rounded decimal gives. Elsewhere the words hold 0.00.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # 100 * 1e307, inf - inf
        scaled = np.abs(values) * 100.0
        exact = (np.abs(scaled - np.floor(scaled) - 0.5) > TIE_BAND) & (scaled < 100 * EXACT_BELOW)
    k = np.where(exact, np.rint(scaled), 0.0).astype(np.int64)
    ip, fraction = np.divmod(k, 100)
    hi, lo = np.divmod(ip, 10_000)
    heads, bodies, tails = _tables()
    # The sign goes by the sign bit: "-0.00" for -0.0 and -0.001, as format writes it.
    head = heads[hi + 1000 * np.signbit(values)]
    tail = tails[fraction] | _words([[0, 0, 0, ord(sep)]])
    return np.stack((head, bodies[lo + 10_000 * (hi > 0)], tail), axis=-1), exact


def _points(x: np.ndarray, y: np.ndarray) -> list[str]:
    """The points text of each row of y, a (series x points) array, against
    x: its pairs f"{x:.2f},{y:.2f}", joined by spaces."""
    x_words, x_exact = _fixed2_words(x, ",")
    y_words, y_exact = _fixed2_words(y, " ")
    words = np.concatenate((np.broadcast_to(x_words, y_words.shape), y_words), axis=-1)
    texts = []
    for row in range(len(y)):
        # A row's text is its bytes with the unused 0 cells deleted.
        points = words[row].tobytes().translate(None, b"\0").decode("ascii")[:-1]
        inexact = np.flatnonzero(~(x_exact & y_exact[row]))
        if inexact.size:  # near a rounding tie, huge or non-finite: format's own text
            pairs = points.split(" ")
            for j in inexact.tolist():
                pairs[j] = f"{float(x[j]):.2f},{float(y[row, j]):.2f}"
            points = " ".join(pairs)
        texts.append(points)
    return texts


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
    polylines = []
    # Series that share their x array (and length) form one (series x points)
    # block, whose x words are formed once.
    for (_, n), block in groupby(series, key=lambda s: (id(s[1]), min(s[1].size, s[2].size))):
        block = list(block)
        # Arithmetic on Python floats never warns; on arrays it must not either.
        with np.errstate(all="ignore"):
            x_px, y_px = px(block[0][1][:n]), py(np.stack([y[:n] for _, _, y in block]))
        polylines += zip([label for label, _, _ in block], _points(x_px, y_px))
    for i, (label, points) in enumerate(polylines):
        color = COLORS[i % len(COLORS)]
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

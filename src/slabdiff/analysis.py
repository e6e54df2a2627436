"""Extrema detection, wavefront-echo predictions and the slice error norm.

With a finite wavefront speed c = 1/sqrt(eps), density pulses bounce
between the walls and show up as non-monotonic structure in time traces.
The walls act as mirrors, so a pulse launched at x_s reaches u at the
times |u - x_s - k|/c for every integer k (method of images); maxima
detected on a trace's samples are compared against the nearest of those
arrivals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import HALF_WIDTH, MIN_TRACE_SAMPLES, FieldSlice, TimeTrace, check_eps
from .errors import InvalidInputError, InvalidParameterError

#: Early times are dominated by series-truncation ringing of sharp
#: profiles; extrema before this default cutoff are not reported.
DEFAULT_V_CUTOFF = 1e-3

#: Fraction of a trace's range that successive differences may
#: oppose its overall direction by and still count as monotone.
MONOTONE_SLACK = 1e-3

MONOTONE_INCREASING = "monotone_increasing"
MONOTONE_DECREASING = "monotone_decreasing"
NON_MONOTONE = "non_monotone"


@dataclass(frozen=True)
class ExtremumEvent:
    """One detected interior extremum of a time trace: a sample and its density."""

    v: float
    kind: str  # "maximum" | "minimum"
    value: float
    prominence: float


def _check_source(source: float, eps: float) -> None:
    check_eps(eps, math.ulp(0.0))  # any finite eps > 0 has arrivals
    if source not in (0.0, HALF_WIDTH):
        raise InvalidParameterError(f"source must be 0 or 1/2, got {source!r}")


def nearest_arrival(source: float, u: float, eps: float, v: float) -> float:
    """Echo arrival time at u nearest to v, the earlier one on a tie.

    The walls are mirrors, so a feature launched at t = 0 from source (0 or
    1/2) has images at source + k for every integer k, and its echoes reach
    u at |u - source - k| * sqrt(eps) (method of images). With gap =
    |u - source|, in [0, 1], those distances are gap + n and 1 - gap + n for
    n >= 0; distance 0, the source itself, is no echo. O(1) in any eps: the
    arrivals are never listed.
    """
    _check_source(source, eps)
    if not -HALF_WIDTH <= u <= HALF_WIDTH:
        raise InvalidParameterError(f"u must lie in [-1/2, 1/2], got {u!r}")
    root = math.sqrt(eps)
    crossings = v / root  # v in slab crossings
    if not 0 <= crossings < math.inf:
        raise InvalidInputError(f"v/sqrt(eps) must be finite and >= 0, got v={v!r}, eps={eps!r}")
    gap = abs(u - source)
    times = []
    for offset in (gap or 1.0, 1.0 - gap or 1.0):
        # Arrival n is at or below v, or (by rounding, or below the first
        # arrival) the nearest one above it; either way n or n + 1 is nearest.
        n = max(0, math.floor(crossings - offset))
        times += [(offset + n) * root, (offset + n + 1) * root]
    return min(times, key=lambda t: (abs(t - v), t))


def wavefront_position(source: float, eps: float, v: float) -> float:
    """|u| in [0, 1/2] that the front launched at v = 0 from source (0 or 1/2) reaches at v.

    The front moves at 1/sqrt(eps) and the walls mirror it, so it sits at the
    image point y = source + v/sqrt(eps) folded into the slab, |y - round(y)|,
    and nearest_arrival(source, u1, eps, v) is v for v > 0. The fold is taken
    on the exact remainder of v by sqrt(eps), so a v whose v/sqrt(eps)
    overflows has a position too.
    """
    _check_source(source, eps)
    if not 0 <= v < math.inf:
        raise InvalidInputError(f"v must be finite and >= 0, got {v!r}")
    root = math.sqrt(eps)
    share = math.fmod(v, root) / root  # of the current slab crossing
    return abs(source - min(share, 1.0 - share))


def _check_trace(trace: TimeTrace, v_min_cutoff: float) -> None:
    if not 0 <= v_min_cutoff < math.inf:
        raise InvalidInputError(f"v_min_cutoff must be finite and >= 0, got {v_min_cutoff!r}")
    if len(trace.times) < MIN_TRACE_SAMPLES:
        raise InvalidInputError(
            f"trace has {len(trace.times)} samples, need >= {MIN_TRACE_SAMPLES}"
        )


def _higher_walls(position: list[int], height: list[float], none: int) -> list[int]:
    """For each wall in turn that is not NaN, the nearest earlier one that is higher or NaN.

    Its position, or none where there is none. One pass with a stack of the
    walls not yet overtopped, so it takes time linear in the walls.
    """
    out: list[int] = []
    stack: list[tuple[int, float]] = []
    for p, h in zip(position, height):
        while stack and stack[-1][1] <= h:
            stack.pop()
        if h == h:
            out.append(stack[-1][0] if stack else none)
        stack.append((p, h))
    return out


def _peaks(x: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Indices and prominences of the peaks of x whose prominence is >= threshold.

    The same peaks and prominences as scipy.signal.find_peaks(x,
    prominence=threshold). A peak is a sample, or the middle sample
    (left + right) // 2 of a run of equal samples, whose neighbours are both
    lower; the ends of x are never peaks. Its prominence is its height above
    the higher of its two bases: each the lowest sample between it and the
    nearest sample on that side that is higher (or NaN), else the end of x.
    Between two neighbouring peaks x falls and then rises, so that sample
    lies just past the nearest peak or NaN ("wall") on that side that is
    higher, and only the walls need to be compared.
    """
    change = np.flatnonzero(x[1:] != x[:-1])
    after, before = x[change + 1], x[change]
    first = (after[:-1] > before[:-1]) & (after[1:] < before[1:])
    peaks = (change[:-1][first] + 1 + change[1:][first]) // 2
    height = x[peaks]
    if not len(peaks):
        return peaks, height
    walls = np.sort(np.concatenate((peaks, np.flatnonzero(np.isnan(x)))))
    position, top = walls.tolist(), x[walls].tolist()
    # Per peak: left wall + 1, the peak, right wall; the bases are the minima
    # of x[left + 1:peak] and x[peak:right].
    bounds = np.array((
        _higher_walls(position, top, -1),
        peaks,
        _higher_walls(position[::-1], top[::-1], len(x))[::-1],
    )).T
    bounds[:, 0] += 1
    # The appended sample makes len(x) a valid bound.
    low = np.minimum.reduceat(np.append(x, 0.0), bounds.ravel())
    prominence = height - np.maximum(low[0::3], low[1::3])
    keep = threshold <= prominence
    return peaks[keep], prominence[keep]


def detect_extrema(
    trace: TimeTrace,
    v_min_cutoff: float = DEFAULT_V_CUTOFF,
    *,
    prominence_threshold: float,
) -> list[ExtremumEvent]:
    """Interior extrema of the trace's samples at v >= v_min_cutoff.

    Maxima and minima of the samples with prominence >= prominence_threshold
    are collected; trace endpoints are never reported. Events come back
    sorted by time. The conventional threshold is a small fraction (1e-3)
    of the slab mass.
    """
    _check_trace(trace, v_min_cutoff)
    if not prominence_threshold >= 0:
        raise InvalidInputError(f"prominence_threshold must be >= 0, got {prominence_threshold!r}")
    times, values = trace.times.points, trace.values
    events: list[ExtremumEvent] = []
    for sign, kind in ((1.0, "maximum"), (-1.0, "minimum")):
        for i, prom in zip(*_peaks(sign * values, prominence_threshold)):
            if times[i] >= v_min_cutoff:
                events.append(ExtremumEvent(float(times[i]), kind, float(values[i]), float(prom)))
    events.sort(key=lambda e: e.v)
    return events


def classify_monotone(trace: TimeTrace, v_min_cutoff: float = DEFAULT_V_CUTOFF) -> str:
    """Classify a trace's samples as monotone or not for v >= v_min_cutoff.

    Successive differences may oppose the overall direction by at most
    MONOTONE_SLACK * (range of the samples) before the trace counts as
    non-monotone.
    """
    _check_trace(trace, v_min_cutoff)
    values = trace.values[trace.times.points >= v_min_cutoff]
    if values.size < 2:
        raise InvalidInputError("no samples at or above v_min_cutoff")
    diffs = np.diff(values)
    allowance = MONOTONE_SLACK * float(np.ptp(values))
    can_increase = bool(np.all(diffs >= -allowance))
    can_decrease = bool(np.all(diffs <= allowance))
    if can_increase and can_decrease:
        # Flat within the allowance; break the tie with the net change.
        return MONOTONE_INCREASING if values[-1] >= values[0] else MONOTONE_DECREASING
    if can_increase:
        return MONOTONE_INCREASING
    if can_decrease:
        return MONOTONE_DECREASING
    return NON_MONOTONE


@dataclass(frozen=True)
class ErrorNorms:
    """Pointwise difference between two slices."""

    l_inf: float


def error_norms(a: FieldSlice, b: FieldSlice) -> ErrorNorms:
    """Max-abs difference of two matching slices.

    The slices must share the grid exactly and their times must agree to
    1e-12.
    """
    if a.grid != b.grid:
        raise InvalidInputError("slices are on different grids")
    if abs(a.v - b.v) > 1e-12:
        raise InvalidInputError(f"slice times differ: {a.v!r} vs {b.v!r}")
    return ErrorNorms(l_inf=float(np.max(np.abs(a.values - b.values))))

"""Extrema detection, wavefront-echo predictions and the slice error norm.

With a finite wavefront speed c = 1/sqrt(eps), density pulses bounce
between the walls and show up as non-monotonic structure in time traces.
The expected arrival times form a ladder built from v1 = 0.5/c (wall to
center) and v2 = 1/c (wall to wall); detected extrema are compared against
that ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MIN_TRACE_SAMPLES, check_eps
from .errors import InvalidInputError, InvalidParameterError
from .spectral import FieldSlice, TimeTrace

#: Early times are dominated by series-truncation ringing of sharp
#: profiles; extrema before this default cutoff are not reported.
DEFAULT_V_CUTOFF = 1e-3

#: Moving-average window used before extremum detection.
SMOOTHING_WINDOW = 5

#: Fraction of a smoothed trace's range that successive differences may
#: oppose its overall direction by and still count as monotone.
MONOTONE_SLACK = 1e-3

MONOTONE_INCREASING = "monotone_increasing"
MONOTONE_DECREASING = "monotone_decreasing"
NON_MONOTONE = "non_monotone"


@dataclass(frozen=True)
class ExtremumEvent:
    """One detected interior extremum of a smoothed time trace."""

    v: float
    kind: str  # "maximum" | "minimum"
    value: float
    prominence: float


@dataclass(frozen=True)
class EchoLadder:
    """Successive predicted arrival times of the reflected density wave.

    The k-th arrival (k >= 1) is unit * (2k - 1) on an odd ladder and
    unit * k otherwise. The ladder is unbounded and never materialized: for
    small eps its rungs are far denser than any time grid.
    """

    unit: float
    odd: bool

    def time(self, k: int) -> float:
        """The k-th arrival time, k >= 1."""
        return self.unit * (2.0 * k - 1.0 if self.odd else float(k))

    def nearest(self, v: float) -> float:
        """Ladder time closest to v, the earlier one on a tie."""
        # Rung k is at or below v, or (by rounding, or below the first rung)
        # the nearest one above it; either way rung k or k + 1 is nearest.
        k = max(1, math.floor((v / self.unit + 1.0) / 2.0 if self.odd else v / self.unit))
        return min(self.time(k), self.time(k + 1), key=lambda t: abs(t - v))


def predict_echo_ladder(source: str, u: float, eps: float) -> EchoLadder:
    """Arrival-time ladder of a source observed at position u (0 or 0.5).

    With v1 = 0.5*sqrt(eps) and v2 = sqrt(eps):

    * center source observed at the wall (u = 0.5): v1, 3*v1, 5*v1, ...
      (first arrival plus round trips of a full slab width);
    * center source observed at the center (u = 0): v2, 2*v2, ...
    * surface source observed at the wall: v2, 2*v2, 3*v2, ...
    * surface source observed at the center: v1, 3*v1, 5*v1, ...
    """
    check_eps(eps, math.ulp(0.0))  # any finite eps > 0 has a ladder
    if source not in ("center", "surface"):
        raise InvalidParameterError(f"source must be 'center' or 'surface', got {source!r}")
    if u not in (0.0, 0.5):
        raise InvalidParameterError(f"u must be 0 or 0.5, got {u!r}")
    odd = (source == "center") == (u == 0.5)
    return EchoLadder(unit=0.5 * math.sqrt(eps) if odd else math.sqrt(eps), odd=odd)


def _smoothed(trace: TimeTrace) -> tuple[np.ndarray, np.ndarray]:
    if len(trace.times) < MIN_TRACE_SAMPLES:
        raise InvalidInputError(
            f"trace has {len(trace.times)} samples, need >= {MIN_TRACE_SAMPLES}"
        )
    kernel = np.full(SMOOTHING_WINDOW, 1.0 / SMOOTHING_WINDOW)
    values = np.convolve(trace.values, kernel, mode="valid")
    half = SMOOTHING_WINDOW // 2
    times = trace.times.points[half:-half]
    return times, values


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
    """Interior extrema of the smoothed trace at v >= v_min_cutoff.

    The trace is smoothed with a 5-point moving average, then maxima and
    minima with prominence >= prominence_threshold are collected; trace
    endpoints are never reported. Events come back sorted by time.
    The conventional threshold is a small fraction (1e-3) of the slab mass.
    """
    if v_min_cutoff < 0:
        raise InvalidInputError(f"v_min_cutoff must be >= 0, got {v_min_cutoff!r}")
    times, values = _smoothed(trace)
    events: list[ExtremumEvent] = []
    for sign, kind in ((1.0, "maximum"), (-1.0, "minimum")):
        for i, prom in zip(*_peaks(sign * values, prominence_threshold)):
            if times[i] >= v_min_cutoff:
                events.append(
                    ExtremumEvent(
                        v=float(times[i]),
                        kind=kind,
                        value=float(values[i]),
                        prominence=float(prom),
                    )
                )
    events.sort(key=lambda e: e.v)
    return events


def classify_monotone(trace: TimeTrace, v_min_cutoff: float = DEFAULT_V_CUTOFF) -> str:
    """Classify a smoothed trace as monotone or not for v >= v_min_cutoff.

    Successive differences may oppose the overall direction by at most
    MONOTONE_SLACK * (range of the smoothed trace) before the trace counts
    as non-monotone.
    """
    times, values = _smoothed(trace)
    keep = times >= v_min_cutoff
    values = values[keep]
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

"""Extrema detection, wavefront-echo predictions and error norms.

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

from .errors import InvalidInputError, InvalidParameterError
from .spectral import FieldSlice, TimeTrace

#: Early times are dominated by series-truncation ringing of sharp
#: profiles; extrema before this default cutoff are not reported.
DEFAULT_V_CUTOFF = 1e-3

#: Moving-average window used before extremum detection.
SMOOTHING_WINDOW = 5

#: Minimum number of samples a trace must have.
MIN_TRACE_SAMPLES = 200

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
    """Predicted wavefront arrival times at an observation point.

    source names where the initial mass sits ("center" or "surface"),
    observation_u is the probed position (0 or 0.5), and times are the
    successive predicted arrival times of the reflected density wave.
    """

    source: str
    observation_u: float
    times: np.ndarray
    wave_speed: float

    def nearest(self, v: float) -> float:
        """Ladder time closest to v."""
        return float(self.times[np.argmin(np.abs(self.times - v))])


def predict_echo_ladder(
    source: str, observation_u: float, eps: float, count: int
) -> EchoLadder:
    """Arrival-time ladder for a source/observation pair.

    With v1 = 0.5*sqrt(eps) and v2 = sqrt(eps):

    * center source observed at the wall (u = 0.5): v1, 3*v1, 5*v1, ...
      (first arrival plus round trips of a full slab width);
    * center source observed at the center (u = 0): v2, 2*v2, ...
    * surface source observed at the wall: v2, 2*v2, 3*v2, ...
    * surface source observed at the center: v1, 3*v1, 5*v1, ...
    """
    if not (eps > 0):
        raise InvalidParameterError(f"eps must be > 0, got {eps!r}")
    if not (isinstance(count, int) and count >= 1):
        raise InvalidParameterError(f"count must be a positive integer, got {count!r}")
    if source not in ("center", "surface"):
        raise InvalidParameterError(f"source must be 'center' or 'surface', got {source!r}")
    if observation_u not in (0.0, 0.5):
        raise InvalidParameterError(
            f"observation_u must be 0 or 0.5, got {observation_u!r}"
        )
    v1 = 0.5 * math.sqrt(eps)
    v2 = math.sqrt(eps)
    odd = (source == "center") == (observation_u == 0.5)
    if odd:
        times = v1 * (2.0 * np.arange(1, count + 1) - 1.0)
    else:
        times = v2 * np.arange(1, count + 1)
    return EchoLadder(
        source=source,
        observation_u=float(observation_u),
        times=times,
        wave_speed=1.0 / math.sqrt(eps),
    )


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
    # Imported here: scipy.signal is slow to import and only this function
    # needs it, so the CLI starts without it.
    from scipy.signal import find_peaks

    if v_min_cutoff < 0:
        raise InvalidInputError(f"v_min_cutoff must be >= 0, got {v_min_cutoff!r}")
    times, values = _smoothed(trace)
    events: list[ExtremumEvent] = []
    for sign, kind in ((1.0, "maximum"), (-1.0, "minimum")):
        idx, props = find_peaks(sign * values, prominence=prominence_threshold)
        for i, prom in zip(idx, props["prominences"]):
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


def classify_monotone(
    trace: TimeTrace,
    v_min_cutoff: float = DEFAULT_V_CUTOFF,
    slack: float = 1e-3,
) -> str:
    """Classify a smoothed trace as monotone or not for v >= v_min_cutoff.

    Successive differences may oppose the overall direction by at most
    slack * (range of the smoothed trace) before the trace counts as
    non-monotone.
    """
    times, values = _smoothed(trace)
    keep = times >= v_min_cutoff
    values = values[keep]
    if values.size < 2:
        raise InvalidInputError("no samples at or above v_min_cutoff")
    diffs = np.diff(values)
    allowance = slack * float(np.ptp(values))
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
    """Pointwise and integral differences between two slices."""

    l_inf: float
    l2: float
    mass_diff: float


def error_norms(a: FieldSlice, b: FieldSlice) -> ErrorNorms:
    """Max-abs, RMS and trapezoid-mass differences of two matching slices.

    The slices must share the grid exactly and their times must agree to
    1e-12.
    """
    if a.grid != b.grid:
        raise InvalidInputError("slices are on different grids")
    if abs(a.v - b.v) > 1e-12:
        raise InvalidInputError(f"slice times differ: {a.v!r} vs {b.v!r}")
    diff = a.values - b.values
    return ErrorNorms(
        l_inf=float(np.max(np.abs(diff))),
        l2=float(np.sqrt(np.mean(diff**2))),
        mass_diff=abs(a.mass() - b.mass()),
    )

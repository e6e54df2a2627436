"""The dimensionless slab, its space and time grids, and the checks a
scenario runs on its parameters before any compute.

Lengths are measured in units of the slab thickness d and times in units of
the diffusion time tau_D = d^2 / D, so the slab always occupies
u in [-1/2, 1/2] and relaxation enters through the single number
eps = tau_r / tau_D.

Every parameter rule has one owner here, and every other module calls it:

* check_count owns the rule for a count (series terms, a cosine mode, grid
  and time samples, FD cells): an integer, numpy integers included and
  floats refused, even whole ones, at or above a lower bound;
* check_eps owns the rule for eps: finite and at or above a lower bound.
  check_telegraph_eps (eps >= the smallest normal float) and check_wkb_eps
  (eps >= 0, and no resonant mode) are built on it.

These rules, the fewest samples a trace needs for extrema detection and the
fewest FD cells live here, not in spectral, analysis and fd, so that
validating a scenario loads none of those modules.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParameterError, ResonantModeError

#: Half-width of the dimensionless slab.
HALF_WIDTH = 0.5

#: The series families, in the order a run writes them.
SPECTRAL_MODELS = ("parabolic", "hyperbolic", "wkb")

#: |1 - eps*(2*m*pi)^2| below this is a resonant two-timescale mode.
RESONANCE_TOL = 1e-9

#: Minimum number of samples a trace must have for extrema detection.
MIN_TRACE_SAMPLES = 200

#: The fewest cells of the FD oracle.
MIN_FD_CELLS = 3

#: The most float64 samples numpy builds into one array: it refuses an array
#: of more than np.iinfo(np.intp).max bytes before allocating anything.
MAX_SAMPLES = np.iinfo(np.intp).max // 8


def slab_positions(u) -> np.ndarray:
    """u (scalar or array) as a float array; every value must lie in [-1/2, 1/2]."""
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < -HALF_WIDTH) or np.any(u_arr > HALF_WIDTH):
        raise DomainError(f"u must lie in [-1/2, 1/2], got {u!r}")
    return u_arr


def check_count(value, name: str, minimum: int) -> int:
    """value as an int; raise InvalidParameterError unless it is an integer >= minimum.

    numpy integers are counts; a float is refused, even a whole one.
    """
    try:
        count = operator.index(value)
    except TypeError:
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise InvalidParameterError(f"{name} must be >= {minimum}, got {count}")
    return count


def check_eps(eps: float, minimum: float):
    """Raise InvalidParameterError unless minimum <= eps < inf (NaN is refused)."""
    if not (minimum <= eps < math.inf):
        raise InvalidParameterError(f"eps must be finite and >= {minimum!r}, got {eps!r}")


def check_telegraph_eps(eps: float):
    """Raise InvalidParameterError unless sys.float_info.min <= eps < inf.

    The telegraph closed forms divide by 2*eps, and 1/(2*eps) overflows
    for a subnormal eps.
    """
    check_eps(eps, sys.float_info.min)


def _mode_ratios(eps: float, m):
    """q_m = eps*(2*m*pi)^2 of the modes m."""
    return eps * (2.0 * math.pi * m) ** 2


def check_wkb_eps(eps: float, terms: int):
    """Raise unless 0 <= eps < inf and no mode m <= terms is resonant, in O(1).

    q_m rises with m, so only the modes next to 1/(2*pi*sqrt(eps)) can come
    within RESONANCE_TOL of 1.

    Raises:
        InvalidParameterError: eps < 0, infinite or NaN.
        ResonantModeError: |1 - q_m| < RESONANCE_TOL for some m <= terms,
            where the two-timescale closed form is singular.
    """
    check_eps(eps, 0.0)
    near = math.floor(1.0 / (2.0 * math.pi * math.sqrt(eps))) if eps > 0 else math.inf
    if near > terms + 1:
        return
    m = np.arange(max(1, near - 1), min(terms, near + 2) + 1, dtype=float)
    resonant = np.flatnonzero(np.abs(1.0 - _mode_ratios(eps, m)) < RESONANCE_TOL)
    if resonant.size:
        raise ResonantModeError(int(m[resonant[0]]), eps)


def _linspace(start: float, stop: float, count: int, name: str) -> np.ndarray:
    """count evenly spaced samples of [start, stop]; 2 <= count <= MAX_SAMPLES."""
    count = check_count(count, name, 2)
    if count > MAX_SAMPLES:
        raise InvalidParameterError(
            f"{count} {name} exceed the {MAX_SAMPLES} floats one array can hold")
    return np.linspace(start, stop, count)


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidParameterError(f"{name} must be a non-empty 1D array")
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError(f"{name} must be finite")
    return arr


class _Points:
    """Ordered sample points; two grids of one type are equal when their points are."""

    points: np.ndarray

    def __len__(self) -> int:
        return self.points.size

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.points.shape == other.points.shape and bool(
            np.all(self.points == other.points)
        )


@dataclass(frozen=True, eq=False)
class Grid1D(_Points):
    """Ordered spatial sample points inside the slab.

    points must be strictly increasing and contained in [-1/2, 1/2].
    """

    points: np.ndarray

    def __post_init__(self):
        arr = _as_float_array(self.points, "grid points")
        object.__setattr__(self, "points", arr)
        if arr.size > 1 and not np.all(np.diff(arr) > 0):
            raise InvalidParameterError("grid points must be strictly increasing")
        if arr[0] < -HALF_WIDTH or arr[-1] > HALF_WIDTH:
            raise InvalidParameterError(
                f"grid points must lie in [-1/2, 1/2], got range "
                f"[{arr[0]!r}, {arr[-1]!r}]"
            )

    @classmethod
    def uniform_grid(cls, n_points: int) -> "Grid1D":
        """Uniform grid of n_points including both walls."""
        return cls(points=_linspace(-HALF_WIDTH, HALF_WIDTH, n_points, "u points"))


@dataclass(frozen=True, eq=False)
class TimeGrid(_Points):
    """Ordered sample times v >= 0 (in units of the diffusion time)."""

    points: np.ndarray

    def __post_init__(self):
        arr = _as_float_array(self.points, "time points")
        object.__setattr__(self, "points", arr)
        if arr[0] < 0:
            raise InvalidParameterError(f"times must be >= 0, got {arr[0]!r}")
        if arr.size > 1 and not np.all(np.diff(arr) > 0):
            raise InvalidParameterError("times must be strictly increasing")

    @classmethod
    def from_values(cls, values) -> "TimeGrid":
        return cls(points=np.asarray(values, dtype=float))

    @classmethod
    def linspace(cls, start: float, stop: float, count: int) -> "TimeGrid":
        return cls(points=_linspace(start, stop, count, "time points"))

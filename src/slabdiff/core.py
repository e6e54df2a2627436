"""The dimensionless slab, its space and time grids, and the checks a
scenario runs on its parameters before any compute.

Lengths are measured in units of the slab thickness d and times in units of
the diffusion time tau_D = d^2 / D, so the slab always occupies
u in [-1/2, 1/2] and relaxation enters through the single number
eps = tau_r / tau_D.

The eps checks of the telegraph and two-timescale families and the fewest
samples a trace needs for extrema detection live here, not in spectral and
analysis, so that validating a scenario loads neither of those modules.
"""

from __future__ import annotations

import math
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

#: The most float64 samples numpy builds into one array: it refuses an array
#: of more than np.iinfo(np.intp).max bytes before allocating anything.
MAX_SAMPLES = np.iinfo(np.intp).max // 8


def slab_positions(u) -> np.ndarray:
    """u (scalar or array) as a float array; every value must lie in [-1/2, 1/2]."""
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < -HALF_WIDTH) or np.any(u_arr > HALF_WIDTH):
        raise DomainError(f"u must lie in [-1/2, 1/2], got {u!r}")
    return u_arr


def check_telegraph_eps(eps: float):
    """Raise InvalidParameterError unless eps >= sys.float_info.min.

    The telegraph closed forms divide by 2*eps, and 1/(2*eps) overflows
    for a subnormal eps.
    """
    if not (eps >= sys.float_info.min):
        raise InvalidParameterError(
            f"the telegraph model requires eps > 0 and not subnormal "
            f"(>= {sys.float_info.min!r}), got {eps!r}"
        )


def _mode_ratios(eps: float, m):
    """q_m = eps*(2*m*pi)^2 of the modes m."""
    return eps * (2.0 * math.pi * m) ** 2


def check_wkb_eps(eps: float, terms: int):
    """Raise unless eps >= 0 and no mode m <= terms is resonant, in O(1).

    q_m rises with m, so only the modes next to 1/(2*pi*sqrt(eps)) can come
    within RESONANCE_TOL of 1.

    Raises:
        InvalidParameterError: eps < 0 or NaN.
        ResonantModeError: |1 - q_m| < RESONANCE_TOL for some m <= terms,
            where the two-timescale closed form is singular.
    """
    if not (eps >= 0):
        raise InvalidParameterError(f"eps must be >= 0, got {eps!r}")
    near = math.floor(1.0 / (2.0 * math.pi * math.sqrt(eps))) if eps > 0 else math.inf
    if near > terms + 1:
        return
    m = np.arange(max(1, near - 1), min(terms, near + 2) + 1, dtype=float)
    resonant = np.flatnonzero(np.abs(1.0 - _mode_ratios(eps, m)) < RESONANCE_TOL)
    if resonant.size:
        raise ResonantModeError(int(m[resonant[0]]), eps)


def _linspace(start: float, stop: float, count: int, name: str) -> np.ndarray:
    """count evenly spaced samples of [start, stop]; 2 <= count <= MAX_SAMPLES."""
    if count < 2:
        raise InvalidParameterError(f"need at least 2 {name}, got {count}")
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
        return cls(points=_linspace(-HALF_WIDTH, HALF_WIDTH, n_points, "grid points"))


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

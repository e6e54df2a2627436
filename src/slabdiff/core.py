"""The dimensionless slab and its space and time grids.

Lengths are measured in units of the slab thickness d and times in units of
the diffusion time tau_D = d^2 / D, so the slab always occupies
u in [-1/2, 1/2] and relaxation enters through the single number
eps = tau_r / tau_D.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidParameterError

#: Half-width of the dimensionless slab.
HALF_WIDTH = 0.5


def slab_positions(u) -> np.ndarray:
    """u (scalar or array) as a float array; every value must lie in [-1/2, 1/2]."""
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < -HALF_WIDTH) or np.any(u_arr > HALF_WIDTH):
        raise DomainError(f"u must lie in [-1/2, 1/2], got {u!r}")
    return u_arr


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
        if n_points < 2:
            raise InvalidParameterError(f"need at least 2 points, got {n_points}")
        return cls(points=np.linspace(-HALF_WIDTH, HALF_WIDTH, n_points))


@dataclass(frozen=True, eq=False)
class TimeGrid(_Points):
    """Ordered sample times v >= 0 (in units of the diffusion time)."""

    points: np.ndarray = field(default_factory=lambda: np.zeros(1))

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
        if count < 2:
            raise InvalidParameterError(f"need at least 2 time points, got {count}")
        return cls(points=np.linspace(start, stop, count))

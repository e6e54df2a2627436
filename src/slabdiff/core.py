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
* check_eps owns the rule for eps: finite and at or above a lower bound;
* check_family_eps owns each series family's eps rule, one line of
  EPS_RULES built on check_eps: the telegraph family needs eps >= the
  smallest normal float, the two-timescale family eps >= 0, and both refuse
  an eps whose product with the last mode's squared wavenumber is not
  finite; the parabolic family ignores eps. Both the series evaluator and
  Scenario call it.

These rules, the fewest samples a trace needs for extrema detection and the
fewest FD cells live here, not in spectral, analysis and fd, so that
validating a scenario loads none of those modules. The sampled results,
FieldSlice and TimeTrace, live here next to the grids they sample, so that
the FD oracle and the analysis import no series code.

The space grid Grid1D and the time grid TimeGrid are one checked axis,
_Points: a non-empty, finite, strictly increasing 1-D array inside the
class's bounds, [-1/2, 1/2] for positions and [0, inf) for times. A
linspace axis has one rule, which its build and its check both run first:
at most MAX_SAMPLES points, ends of magnitude at most MAX_END and a step of
at least MIN_STEP of the larger end, so that O(1) arithmetic decides it.
Grid1D.uniform_count and TimeGrid.linspace_count run that rule alone, and
TimeGrid.checked_values checks a list of times as Python floats; float()
reads every end and time, and what it cannot read is refused. So
validating a scenario loads no numpy: this module imports it only inside
the functions that make arrays.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError, InvalidParameterError

if TYPE_CHECKING:
    import numpy as np

#: Half-width of the dimensionless slab.
HALF_WIDTH = 0.5

#: The series families, in the order a run writes them.
SPECTRAL_MODELS = ("parabolic", "hyperbolic", "wkb")

#: Minimum number of samples a trace must have for extrema detection.
MIN_TRACE_SAMPLES = 200

#: The fewest cells of the FD oracle.
MIN_FD_CELLS = 3

#: The most samples of one linspace axis: 2**27 float64 take 1 GiB. A count
#: above it is refused before anything is allocated, whether the axis is
#: built or only checked.
MAX_SAMPLES = 2**27

#: The least step of a linspace axis, as a fraction of its largest end:
#: no physics needs a finer one, and every step at or above it strictly
#: increases, which O(1) arithmetic decides without building the grid.
MIN_STEP = 1e-9

#: The largest |end| of a linspace axis: its span, each i*step and each
#: sample then stay finite (at max/2, np.linspace(-max/2, max/2, 4) overflows).
MAX_END = sys.float_info.max / 4


def slab_positions(u) -> np.ndarray:
    """u (scalar or array) as a float array; every value must lie in [-1/2, 1/2]."""
    import numpy as np

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
    """Raise InvalidParameterError unless minimum <= eps < inf (NaN and non-numbers are refused)."""
    try:
        valid = math.isfinite(eps) and eps >= minimum
    except (TypeError, OverflowError):  # a string, None, an array or an int beyond floats
        valid = False
    if not valid:
        raise InvalidParameterError(f"eps must be finite and >= {minimum!r}, got {eps!r}")


#: Each family's eps rule: its least eps, and the factor w of its last
#: mode's rate, (w*M)^2*eps at M = terms, which must be finite. The
#: telegraph closed forms divide by 2*eps, which a subnormal eps overflows,
#: and its discriminant is 1 - (4*M*pi)^2*eps; the two-timescale ratio is
#: q_M = eps*(2*M*pi)^2. The parabolic family ignores eps.
EPS_RULES = {"hyperbolic": (sys.float_info.min, 4.0 * math.pi), "wkb": (0.0, 2.0 * math.pi)}


def check_family_eps(model: str, eps: float, terms: int):
    """Raise InvalidParameterError unless eps suits the series family `model` at `terms` modes.

    eps must be at least the family's least eps in EPS_RULES, and its
    product with the squared wavenumber of the last mode M = terms finite.
    """
    if model in EPS_RULES:
        minimum, wavenumber = EPS_RULES[model]
        check_eps(eps, minimum)
        if not math.isfinite((wavenumber * terms) ** 2 * eps):
            raise InvalidParameterError(f"eps={eps!r} is too large for {terms} terms: "
                                        "the last mode's rate overflows")


def as_floats(values) -> tuple[float, ...] | None:
    """values as a tuple of floats, float() reading each; None unless values is a 1-D sequence.

    A bare string, a scalar, a nested sequence, an array of ndim other than
    1 and an entry float() cannot read make no such sequence.
    """
    if isinstance(values, (str, bytes)) or getattr(values, "ndim", 1) != 1:
        return None
    try:
        return tuple(map(float, values))
    except (TypeError, ValueError, OverflowError):
        return None


@dataclass(frozen=True, eq=False)
class _Points:
    """Ordered sample points; two grids of one type are equal when their points are.

    points must be a non-empty 1-D finite array, strictly increasing and
    inside [low, high]. Each subclass sets those bounds, their text span and
    the noun its refusals name. A subclass declares no field, so it
    inherits this dataclass undecorated and costs no dataclass build at import.
    """

    points: np.ndarray

    def __post_init__(self):
        import numpy as np

        try:
            arr = np.asarray(self.points, dtype=float)
        except (TypeError, ValueError, OverflowError):
            self._refuse("a non-empty 1D array")
        object.__setattr__(self, "points", arr)
        if arr.ndim != 1 or arr.size == 0:
            self._refuse("a non-empty 1D array")
        if not np.all(np.isfinite(arr)):
            self._refuse("finite")
        if arr.size > 1 and not np.all(np.diff(arr) > 0):
            self._refuse("strictly increasing")
        self._check_range(float(arr[0]), float(arr[-1]))

    @classmethod
    def _refuse(cls, rule: str):
        raise InvalidParameterError(f"{cls.noun} must be {rule}")

    @classmethod
    def _check_range(cls, first: float, last: float):
        if first < cls.low or last > cls.high:
            raise InvalidParameterError(
                f"{cls.noun} must lie in {cls.span}, got range [{first!r}, {last!r}]"
            )

    @classmethod
    def checked_values(cls, values) -> tuple[float, ...]:
        """The points of cls(points=values) as floats, refused as that build would refuse them."""
        points = as_floats(values)
        if not points:
            cls._refuse("a non-empty 1D array")
        if not all(map(math.isfinite, points)):
            cls._refuse("finite")
        if any(b <= a for a, b in zip(points, points[1:])):
            cls._refuse("strictly increasing")
        cls._check_range(points[0], points[-1])
        return points

    @classmethod
    def _linspace_axis(cls, start, stop, count, name: str) -> tuple[float, float, int]:
        """start and stop as floats and count as an int, refused unless they make a valid grid.

        O(1) and without numpy: float() must read both ends, |start| and
        |stop| must be at most MAX_END, start < stop inside the class's
        bounds, 2 <= count <= MAX_SAMPLES, and the step
        (stop - start)/(count - 1) a normal float of at least MIN_STEP*E,
        E = max(|start|, |stop|).

        Then np.linspace(start, stop, count) strictly increases. Its sample
        i < count - 1 is fl(fl(i*step) + start), and its last is stop: each
        lies within 3 ulps U of E, plus count half-ulps of the step, of
        start + i*(stop - start)/(count - 1), so a step above 16*U plus
        count ulps of itself keeps every pair apart. As ulp(x) <= 2**-52 *
        max(x, the smallest normal float), a normal step has count*ulp(step)
        <= 2**-25 * step and 16*U <= 3.6e-15 * max(E, step) <= 3.6e-6 * step,
        so it clears that bound by a factor of about 2.7e5. The end bound keeps
        stop - start <= max/2, so i*step and start + i*step stay finite. A
        range from 0 is refused only below a stop of 3e-300, where no step of
        it is a normal float.
        """
        count = check_count(count, name, 2)
        if count > MAX_SAMPLES:
            raise InvalidParameterError(
                f"{count} {name} exceed the cap of {MAX_SAMPLES} samples per axis")
        ends = as_floats((start, stop)) or (math.nan,)
        if not all(abs(end) <= MAX_END for end in ends):
            cls._refuse(f"finite numbers of magnitude at most {MAX_END!r}, got ends "
                        f"{start!r} and {stop!r}")
        start, stop = ends
        if not stop > start:
            cls._refuse("strictly increasing")
        cls._check_range(start, stop)
        step = (stop - start) / (count - 1)
        if not step >= max(MIN_STEP * max(abs(start), abs(stop)), sys.float_info.min):
            cls._refuse(f"spaced by a normal float of at least {MIN_STEP:g} of their largest "
                        f"magnitude, got a step of {step!r}")
        return start, stop, count

    @classmethod
    def _linspace(cls, start, stop, count, name: str):
        """cls(points=np.linspace(start, stop, count)), refused by _linspace_axis first.

        A count that cannot be allocated raises InvalidParameterError.
        """
        import numpy as np

        start, stop, count = cls._linspace_axis(start, stop, count, name)
        try:
            points = np.linspace(start, stop, count)
        except MemoryError as exc:
            raise InvalidParameterError(f"{count} {name} do not fit in memory: {exc}") from exc
        return cls(points=points)

    def __len__(self) -> int:
        return self.points.size

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.points.shape == other.points.shape and bool(
            (self.points == other.points).all()
        )


class Grid1D(_Points):
    """Ordered spatial sample points inside the slab [-1/2, 1/2]."""

    noun = "grid points"
    low, high, span = -HALF_WIDTH, HALF_WIDTH, "[-1/2, 1/2]"

    @classmethod
    def uniform_grid(cls, n_points: int) -> "Grid1D":
        """Uniform grid of n_points including both walls."""
        return cls._linspace(-HALF_WIDTH, HALF_WIDTH, n_points, "u points")

    @classmethod
    def uniform_count(cls, n_points: int) -> int:
        """len(uniform_grid(n_points)), refused as it would be, without building it."""
        return cls._linspace_axis(-HALF_WIDTH, HALF_WIDTH, n_points, "u points")[2]


class TimeGrid(_Points):
    """Ordered sample times v >= 0 (in units of the diffusion time)."""

    noun = "time points"
    low, high, span = 0.0, math.inf, "[0, inf)"

    @classmethod
    def from_values(cls, values) -> "TimeGrid":
        return cls(points=values)

    @classmethod
    def linspace(cls, start: float, stop: float, count: int) -> "TimeGrid":
        return cls._linspace(start, stop, count, "time points")

    @classmethod
    def linspace_count(cls, start: float, stop: float, count: int) -> int:
        """len(linspace(start, stop, count)), refused as it would be, without building it."""
        return cls._linspace_axis(start, stop, count, "time points")[2]


def _check_samples(sampled, count: int, axis: str):
    """Store sampled.values as a finite float array of `count` samples along `axis`."""
    import numpy as np

    vals = np.asarray(sampled.values, dtype=float)
    object.__setattr__(sampled, "values", vals)
    if vals.shape != (count,):
        raise InvalidParameterError(f"values shape {vals.shape} does not match {axis}")
    if not np.all(np.isfinite(vals)):
        raise InvalidParameterError("values must be finite")


@dataclass(frozen=True)
class FieldSlice:
    """Density sampled over a spatial grid at one time."""

    grid: Grid1D
    v: float
    values: np.ndarray

    def __post_init__(self):
        _check_samples(self, len(self.grid), f"grid of {len(self.grid)} points")


@dataclass(frozen=True)
class TimeTrace:
    """Density sampled over time at one spatial point."""

    u: float
    times: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        _check_samples(self, len(self.times), f"{len(self.times)} times")

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
  (eps >= 0, and no resonant mode) are built on it, and both refuse an eps
  whose product with the last mode's squared wavenumber is not finite;
* check_family_eps owns the map from a series family to its eps rule, and
  both the series evaluator and Scenario call it.

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

from .errors import DomainError, InvalidParameterError, ResonantModeError

if TYPE_CHECKING:
    import numpy as np

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


def _check_last_mode(product: float, eps: float, terms: int):
    if not math.isfinite(product):
        raise InvalidParameterError(
            f"eps={eps!r} is too large for {terms} terms: the last mode's rate overflows"
        )


def check_telegraph_eps(eps: float, terms: int):
    """Raise InvalidParameterError unless eps >= sys.float_info.min and (4*M*pi)^2*eps < inf.

    M = terms is the last mode. The telegraph closed forms divide by 2*eps,
    and 1/(2*eps) overflows for a subnormal eps; the last mode's
    discriminant 1 - (4*M*pi)^2*eps overflows for a huge one.
    """
    check_eps(eps, sys.float_info.min)
    _check_last_mode((4.0 * math.pi * terms) ** 2 * eps, eps, terms)


def _mode_ratios(eps: float, m):
    """q_m = eps*(2*m*pi)^2 of the modes m."""
    return eps * (2.0 * math.pi * m) ** 2


def check_wkb_eps(eps: float, terms: int):
    """Raise unless eps >= 0, q_M < inf for M = terms and no mode m <= M is resonant, in O(1).

    q_m rises with m, so only the modes next to 1/(2*pi*sqrt(eps)) can come
    within RESONANCE_TOL of 1.

    Raises:
        InvalidParameterError: eps < 0, infinite or NaN, or q_M overflows.
        ResonantModeError: |1 - q_m| < RESONANCE_TOL for some m <= terms,
            where the two-timescale closed form is singular.
    """
    check_eps(eps, 0.0)
    _check_last_mode(_mode_ratios(eps, terms), eps, terms)
    near = math.floor(1.0 / (2.0 * math.pi * math.sqrt(eps))) if eps > 0 else math.inf
    if near > terms + 1:
        return
    for m in range(max(1, near - 1), min(terms, near + 2) + 1):
        if abs(1.0 - _mode_ratios(eps, m)) < RESONANCE_TOL:
            raise ResonantModeError(
                f"mode m={m} is resonant for eps={eps!r}: "
                f"|1 - eps*(2*m*pi)^2| < {RESONANCE_TOL!r}, the closed-form coefficients blow up"
            )


def check_family_eps(model: str, eps: float, terms: int):
    """Raise InvalidParameterError unless eps suits the series family `model` at `terms` modes.

    The telegraph family takes check_telegraph_eps, the two-timescale family
    check_wkb_eps, and the parabolic family ignores eps.
    """
    if model == "hyperbolic":
        check_telegraph_eps(eps, terms)
    elif model == "wkb":
        check_wkb_eps(eps, terms)


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

"""Series solutions of the slab diffusion problem with zero-flux walls.

Three families share the cosine-series coefficients of the initial profile:

* parabolic: each mode decays as exp(-(2*m*pi)^2 * v);
* hyperbolic (telegraph): each mode solves
  eps*V'' + V' + (2*m*pi)^2 * V = 0 with V(0)=k_m, V'(0)=0, evaluated through
  real closed forms per damping class so the result is real by construction;
* two-timescale (WKB-type): a fast boundary-layer decay exp(-v/eps)
  superposed on the parabolic relaxation.

The families differ only in each mode's time factor, and one blocked
evaluator sums all three. It walks the modes in blocks of BLOCK, highest
block first, and contracts each block's time factors with its
cos(2*m*pi*u) rows over the mode axis (one matrix product when u and v
form an outer table). The cosines of a block are built by angle addition
from cos/sin(2*pi*m0*u) of the block's first mode and a shared table of
cos/sin(2*pi*j*u), j < BLOCK.

Angle addition also runs along time, for the telegraph modes' oscillation
cos/sin(omega*v), which dominates the cost of a long trace. The time row is
cut into blocks of BLOCK samples; each time is its block's first time (the
anchor) plus an offset, and the trig is formed once per anchor and once per
distinct offset instead of once per time. A uniform trace of 1201 times has
76 anchors and about 105 distinct offsets. Blocks whose shared decay
exp(-v/(2*eps)) is 0 at every sample get no trig at all. The split is taken
when anchors plus distinct offsets number at most half the samples, so rows
of a few times (field tables, one-time slices), rows whose offsets do not
repeat and rows holding a non-finite time keep the direct formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import Grid1D, TimeGrid, slab_positions
from .errors import (
    DomainError,
    InvalidParameterError,
    ReferenceInvalidError,
    ResonantModeError,
)
from .profiles import GaussianProfile, SpectralCoefficients

#: Discriminant tolerance below which a mode is treated as critically damped;
#: the overdamped formula divides by mu2 - mu1 which vanishes there.
CRITICAL_DISC_TOL = 1e-12

#: |1 - eps*(2*m*pi)^2| below this is a resonant two-timescale mode.
RESONANCE_TOL = 1e-9

#: The wall-free reference requires the Gaussian support to stay this far
#: from the walls: 1/sqrt(sharpness) + sqrt(4*v) <= WALL_CLEARANCE.
WALL_CLEARANCE = 0.25

#: Modes per block of the series evaluator, and times per block of the
#: telegraph time split. It bounds the (modes x points) temporaries, so peak
#: memory does not grow with the truncation.
BLOCK = 16

#: Decay factors exp(x) with x <= EXP_FLOOR (below 3.3e-308, at the edge of
#: the subnormal range that starts at x = -708.4) are taken as 0.
EXP_FLOOR = -708.0

SPECTRAL_MODELS = ("parabolic", "hyperbolic", "wkb")


def _check_v(v):
    v_arr = np.asarray(v, dtype=float)
    if np.any(v_arr < 0):
        raise DomainError(f"v must be >= 0, got {v!r}")
    return v_arr


def _check_telegraph_eps(eps: float):
    if not (eps > 0):
        raise InvalidParameterError(f"eps must be > 0 for the telegraph model, got {eps!r}")


def _scalarize(value, *inputs) -> float | np.ndarray:
    if all(np.isscalar(x) or np.ndim(x) == 0 for x in inputs):
        return float(value)
    return value


def _exp(x):
    """exp(x), flushed to 0 for x <= EXP_FLOOR; NaN stays NaN.

    numpy's exp takes about nine times longer per element on arguments
    whose result is subnormal or underflows, and most decay factors of the
    high modes land there.
    """
    return np.exp(x, out=np.zeros_like(x), where=~(x <= EXP_FLOOR))


# ---------------------------------------------------------------------------
# Series evaluator
# ---------------------------------------------------------------------------

class _TimeSplit(NamedTuple):
    """A time row cut into blocks, each time written as anchor + offset.

    anchors (1 or R, B, 1) holds the first time of each kept block, offsets
    the distinct in-block offsets v - anchor, and inv (B, block length) the
    index into offsets of every sample. Blocks whose shared decay is 0
    throughout are not kept; columns places the kept samples in the row
    padded to whole blocks, and is None when every block is kept.
    """

    anchors: np.ndarray
    offsets: np.ndarray
    inv: np.ndarray
    columns: np.ndarray | None
    size: int

    def place(self, blocks):
        """Values over the kept blocks, (R, B, block length), as rows over the time row."""
        rows = blocks.reshape(len(blocks), -1)
        if self.columns is not None:
            rows, kept = np.zeros((len(blocks), -(-self.size // BLOCK) * BLOCK)), rows
            rows[:, self.columns] = kept
        return rows[:, : self.size]


def _split_times(v, decay):
    """The anchor/offset split of the time row v, in blocks of BLOCK, or None.

    None, for the direct formula, unless the kept anchors and the distinct
    offsets number at most half the samples. A row of fewer than BLOCK
    times never qualifies, and a non-finite time takes the direct formula so
    that it stays in its own sample. A block is dropped when decay == 0 at
    all its samples.
    """
    n = v.size
    if n < BLOCK or not np.all(np.isfinite(v)):
        return None
    pad = -n % BLOCK
    blocks = np.pad(v, (0, pad), mode="edge").reshape(-1, BLOCK)
    live = np.any(np.pad(decay, (0, pad), mode="edge").reshape(-1, BLOCK) != 0, axis=1)
    kept = blocks[live]
    offsets, inv = np.unique((kept - kept[:, :1]).ravel(), return_inverse=True)
    if len(kept) + offsets.size > n / 2:
        return None
    columns = None if live.all() else (
        np.flatnonzero(live)[:, None] * BLOCK + np.arange(BLOCK)
    ).ravel()
    return _TimeSplit(kept[None, :, :1], offsets, inv.reshape(kept.shape), columns, n)


def _unsplit(v):
    """The direct formula as a split: every time is its own anchor, at offset 0."""
    return _TimeSplit(v[:, :, None], np.zeros(1), np.zeros((1, 1), dtype=np.intp), None,
                      v.shape[1])


def _oscillation(omega, r, split: _TimeSplit):
    """cos(omega*v) + r*sin(omega*v) over the split's time row, by angle addition.

    omega and r have shape (R, 1). With v = a + d (anchor a, offset d) the
    sum is cos(omega*a)*P + sin(omega*a)*Q, where P = cos(omega*d) +
    r*sin(omega*d) and Q = r*cos(omega*d) - sin(omega*d) are formed once per
    distinct d. At d = 0, P = 1 and Q = r exactly: the direct formula.
    """
    phase = omega * split.offsets
    cos_d, sin_d = np.cos(phase), np.sin(phase)
    phase = omega[:, :, None] * split.anchors
    # take, unlike [:, inv], returns a C-ordered array, which the products
    # below stream through several times faster.
    osc = np.cos(phase) * np.take(cos_d + r * sin_d, split.inv, axis=1)
    osc += np.sin(phase) * np.take(r * cos_d - sin_d, split.inv, axis=1)
    return split.place(osc)


def _telegraph_factor(eps: float, m, v, decay, split: _TimeSplit | None = None):
    """V_m(v)/k_m of the telegraph modes in column m at the times in v.

    m has shape (R, 1); v and decay = exp(-v/(2*eps)) have one row, or R
    rows (one time per mode). The damping class of each row follows from the
    sign of 1 - (4*m*pi)^2*eps: overdamped (two real decay exponents
    mu2 < mu1 < 0), critical, or underdamped (decay 1/(2*eps), angular
    frequency omega). split, the anchor/offset split of a single time row,
    evaluates the underdamped modes by angle addition along time; without
    one, each time is its own anchor.
    """
    v = np.broadcast_to(v, (len(m), v.shape[1]))
    disc = 1.0 - (4.0 * np.pi * m) ** 2 * eps
    out = np.empty(v.shape)
    over = disc[:, 0] > CRITICAL_DISC_TOL
    under = disc[:, 0] < -CRITICAL_DISC_TOL
    crit = ~(over | under)
    if over.any():
        sq = np.sqrt(disc[over])
        # 1 - sq cancels for small eps; the rate is formed from the
        # equivalent product form instead.
        mu1 = -((4.0 * np.pi * m[over]) ** 2) / (2.0 * (1.0 + sq))
        mu2 = -(1.0 + sq) / (2.0 * eps)
        vo = v[over]
        out[over] = (mu2 * _exp(mu1 * vo) - mu1 * _exp(mu2 * vo)) / (mu2 - mu1)
    if under.any():
        omega = np.sqrt(-disc[under]) / (2.0 * eps)
        osc = _oscillation(omega, 1.0 / (2.0 * eps * omega), split or _unsplit(v[under]))
        # A decay row shared by every mode is not copied once per mode.
        osc *= decay if len(decay) == 1 else decay[under]
        out[under] = osc
    if crit.any():
        out[crit] = (decay if len(decay) == 1 else decay[crit]) * (1.0 + v[crit] / (2.0 * eps))
    return out


def hyperbolic_mode_factor(eps: float, m, v):
    """Normalized time factor V_m(v)/k_m of telegraph mode m, eps > 0.

    Equals 1 at v = 0 with zero slope; m and v broadcast together. All three
    damping classes are evaluated through real closed forms, so the result
    is real for every v >= 0.
    """
    _check_telegraph_eps(eps)
    m_arr, v_arr = np.broadcast_arrays(np.asarray(m, dtype=float), _check_v(v))
    m_col, v_col = m_arr.reshape(-1, 1), v_arr.reshape(-1, 1)
    out = _telegraph_factor(eps, m_col, v_col, _exp((-1.0 / (2.0 * eps)) * v_col))
    return _scalarize(out.reshape(m_arr.shape), m, v)


def _series(model: str, coefficients: SpectralCoefficients, eps: float, u, v):
    """k0 + sum_m k_m T_m(v) cos(2*m*pi*u) for one family; u and v broadcast.

    T_m is the family's time factor. An outer table (u of shape (1, Nu), v
    of shape (Nv, 1)) or a scalar u or v is contracted by matrix products;
    any other broadcast is evaluated point by point.
    """
    if model == "hyperbolic":
        _check_telegraph_eps(eps)
    elif model == "wkb":
        fast = wkb_coefficients(coefficients, eps).fast
    # exp(-v/eps) is never formed for eps = 0, where the fast weights vanish.
    two_scale = model == "wkb" and eps > 0
    u_arr = slab_positions(u)
    v_arr = _check_v(v)
    shape = np.broadcast_shapes(u_arr.shape, v_arr.shape)
    outer = u_arr.size == 1 or v_arr.size == 1 or (
        u_arr.shape == (1, u_arr.size) and v_arr.shape == (v_arr.size, 1)
    )
    if outer:
        u_flat, v_flat = u_arr.ravel(), v_arr.ravel()
    else:
        u_flat = np.broadcast_to(u_arr, shape).ravel()
        v_flat = np.broadcast_to(v_arr, shape).ravel()
    v_row = v_flat[None, :]

    # Time-only factors shared by every mode.
    if model == "hyperbolic":
        decay = _exp((-1.0 / (2.0 * eps)) * v_row)
        split = _split_times(v_flat, decay[0]) or _unsplit(v_row)
    if two_scale:
        # -v/eps overflows to -inf for a subnormal eps; exp(-inf) = 0 is the limit.
        with np.errstate(over="ignore"):
            e_fast = _exp(-v_row / eps)
    angle = (2.0 * np.pi * np.arange(BLOCK, dtype=float))[:, None] * u_flat
    cos_j, sin_j = np.cos(angle), np.sin(angle)

    k = coefficients.modes
    total = np.zeros((v_flat.size, u_flat.size) if outer else u_flat.size)
    for first in range(BLOCK * ((coefficients.truncation - 1) // BLOCK) + 1, 0, -BLOCK):
        block = slice(first - 1, min(first - 1 + BLOCK, coefficients.truncation))
        m = np.arange(block.start + 1, block.stop + 1, dtype=float)[:, None]
        if model == "hyperbolic":
            t = k[block, None] * _telegraph_factor(eps, m, v_row, decay, split)
        else:
            e_slow = _exp(-((2.0 * np.pi * m) ** 2) * v_row)
            t = k[block, None] * e_slow
            if two_scale:
                # k_m*e_s - fast_m*(e_s - e_f) is k_m exactly at v = 0.
                t -= fast[block, None] * (e_slow - e_fast)
        rows = len(m)
        base = (2.0 * math.pi * first) * u_flat
        c = np.cos(base) * cos_j[:rows] - np.sin(base) * sin_j[:rows]
        total += t.T @ c if outer else np.einsum("jn,jn->n", t, c)
    return _scalarize((coefficients.mean + total).reshape(shape), u, v)


def parabolic_density(coefficients: SpectralCoefficients, u, v):
    """Density of the instant-flux (parabolic) model at (u, v).

    u and v broadcast together; the truncated series
    k0 + sum k_m exp(-(2*m*pi)^2 v) cos(2*m*pi*u) is returned.
    """
    return _series("parabolic", coefficients, 0.0, u, v)


def hyperbolic_density(coefficients: SpectralCoefficients, eps: float, u, v):
    """Density of the finite-speed (telegraph) model at (u, v), eps > 0."""
    return _series("hyperbolic", coefficients, eps, u, v)


# ---------------------------------------------------------------------------
# Two-timescale (WKB-type) family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WkbCoefficients:
    """Mode weights of the two-timescale approximation.

    fast[m-1] multiplies the boundary-layer decay exp(-v/eps) and slow[m-1]
    the parabolic decay exp(-(2*m*pi)^2 v); their sum reproduces k_m, which
    keeps the v = 0 reconstruction identical to the other families.
    """

    fast: np.ndarray
    slow: np.ndarray

    def __post_init__(self):
        fast = np.asarray(self.fast, dtype=float)
        slow = np.asarray(self.slow, dtype=float)
        if fast.shape != slow.shape or fast.ndim != 1:
            raise InvalidParameterError("fast and slow must be 1D arrays of equal length")
        object.__setattr__(self, "fast", fast)
        object.__setattr__(self, "slow", slow)


def wkb_mode_ratios(eps: float, terms: int) -> np.ndarray:
    """q_m = eps*(2*m*pi)^2 for m = 1..terms.

    Raises:
        ResonantModeError: |1 - q_m| < RESONANCE_TOL for some m, where the
            two-timescale closed form is singular.
    """
    q = eps * (2.0 * math.pi * np.arange(1, terms + 1, dtype=float)) ** 2
    resonant = np.flatnonzero(np.abs(1.0 - q) < RESONANCE_TOL)
    if resonant.size:
        raise ResonantModeError(int(resonant[0]) + 1, eps)
    return q


def wkb_coefficients(coefficients: SpectralCoefficients, eps: float) -> WkbCoefficients:
    """Split k_m into fast/slow weights:

        fast_m = -eps*(2*m*pi)^2 / (1 - eps*(2*m*pi)^2) * k_m
        slow_m = k_m / (1 - eps*(2*m*pi)^2)

    Raises:
        ResonantModeError: eps*(2*m*pi)^2 is within 1e-9 of 1 for some
            retained m; the closed form is singular there and silently
            dropping the mode would break the v = 0 reconstruction.
    """
    if not (eps >= 0):
        raise InvalidParameterError(f"eps must be >= 0, got {eps!r}")
    q = wkb_mode_ratios(eps, coefficients.truncation)
    k = coefficients.modes
    return WkbCoefficients(fast=-q / (1.0 - q) * k, slow=k / (1.0 - q))


def wkb_density(coefficients: SpectralCoefficients, eps: float, u, v):
    """Density of the two-timescale approximation at (u, v).

    Each mode contributes k_m*e_s - fast_m*(e_s - e_f) with
    e_s = exp(-(2*m*pi)^2 v) and e_f = exp(-v/eps), which equals k_m at
    v = 0. For eps = 0 the fast weights vanish, e_f is never formed and the
    result coincides with parabolic_density exactly.
    """
    return _series("wkb", coefficients, eps, u, v)


def family_density(model: str, coefficients: SpectralCoefficients, eps: float, u, v):
    """Density of the named spectral family at (u, v); u and v broadcast.

    eps is ignored by the parabolic family.
    """
    if model == "parabolic":
        return parabolic_density(coefficients, u, v)
    if model == "hyperbolic":
        return hyperbolic_density(coefficients, eps, u, v)
    if model == "wkb":
        return wkb_density(coefficients, eps, u, v)
    raise InvalidParameterError(f"unknown spectral model {model!r}")


# ---------------------------------------------------------------------------
# Wall-free short-time reference
# ---------------------------------------------------------------------------

def free_space_reference(profile: GaussianProfile, v: float) -> Callable[[np.ndarray], np.ndarray]:
    """Exact evolution of the Gaussian profile with the walls removed.

    Diffusing a Gaussian adds 4*v to the squared-width parameter:
    1/b' = 1/b + 4*v. Valid only while the support stays clear of the walls
    (1/sqrt(b) + sqrt(4*v) <= 1/4); used as a short-time oracle for the
    parabolic series, never as a production solution.

    Returns:
        A closure mapping u to the reference density.
    """
    if not isinstance(profile, GaussianProfile):
        raise InvalidParameterError("the wall-free reference is defined for Gaussian profiles")
    if not (v > 0):
        raise DomainError(f"v must be > 0, got {v!r}")
    support = 1.0 / math.sqrt(profile.sharpness) + math.sqrt(4.0 * v)
    if support > WALL_CLEARANCE:
        raise ReferenceInvalidError(
            f"wall influence is not negligible: 1/sqrt(b) + sqrt(4v) = {support:.4g} "
            f"> {WALL_CLEARANCE}"
        )
    b_eff = 1.0 / (1.0 / profile.sharpness + 4.0 * v)
    amp = profile.amplitude * math.sqrt(b_eff / math.pi)

    def reference(u):
        return amp * np.exp(-b_eff * np.asarray(u, dtype=float) ** 2)

    return reference


# ---------------------------------------------------------------------------
# Sampled results
# ---------------------------------------------------------------------------

def _check_samples(sampled, count: int, axis: str):
    """Store sampled.values as a finite float array of `count` samples along `axis`."""
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
    model_tag: str

    def __post_init__(self):
        _check_samples(self, len(self.grid), f"grid of {len(self.grid)} points")

    def mass(self) -> float:
        """Trapezoid integral of the slice over its grid."""
        return float(np.trapezoid(self.values, self.grid.points))


@dataclass(frozen=True)
class TimeTrace:
    """Density sampled over time at one spatial point."""

    u: float
    times: TimeGrid
    values: np.ndarray
    model_tag: str

    def __post_init__(self):
        _check_samples(self, len(self.times), f"{len(self.times)} times")


def field_slice(
    model: str,
    coefficients: SpectralCoefficients,
    eps: float,
    grid: Grid1D,
    v: float,
) -> FieldSlice:
    """Sample one spectral family over a grid at time v."""
    values = family_density(model, coefficients, eps, grid.points, v)
    return FieldSlice(grid=grid, v=float(v), values=values, model_tag=model)


def time_trace(
    model: str,
    coefficients: SpectralCoefficients,
    eps: float,
    u: float,
    times: TimeGrid,
) -> TimeTrace:
    """Sample one spectral family over a time grid at position u."""
    values = family_density(model, coefficients, eps, u, times.points)
    return TimeTrace(u=float(u), times=times, values=values, model_tag=model)

"""Series solutions of the slab diffusion problem with zero-flux walls.

Three families share the cosine-series coefficients of the initial profile:

* parabolic: each mode decays as exp(-(2*m*pi)^2 * v);
* hyperbolic (telegraph): each mode solves
  eps*V'' + V' + (2*m*pi)^2 * V = 0 with V(0)=k_m, V'(0)=0, evaluated through
  real closed forms per damping class so the result is real by construction;
* two-timescale (WKB-type): a fast boundary-layer decay exp(-v/eps)
  superposed on the parabolic relaxation.

The families differ only in each mode's time factor T_m, and one blocked
evaluator sums all three. It walks the modes in blocks, highest block
first, and evaluates a block only at its live times: those where the
slowest decay exp(-rate*v) of its modes, its first mode's, is not flushed
to 0 at EXP_FLOOR. The rate is (2*m*pi)^2 for the parabolic modes and the
slow part of the two-timescale modes, 1/(2*eps) for the underdamped and
critical telegraph modes, whose decay is shared, and for an overdamped
telegraph mode its slow rate (4*m*pi)^2/(2*(1 + sqrt(disc))). The
underdamped telegraph modes are walked apart from the lower ones, so none
is evaluated where the shared decay is 0, and at a huge or infinite time
no mode is evaluated at all: the density there is k0. Where the slow decay
of a two-timescale mode is 0 it still adds fast_m*exp(-v/eps), as one
rank-one term per block, (sum_m fast_m*cos(2*m*pi*u))*exp(-v/eps). A
block holds max(BLOCK, min(32*BLOCK, size/L)) modes, L the live times of
its first mode and size BLOCK times the times per position, or BLOCK*P on
a lattice: its terms never exceed max(BLOCK*L, size) values, so peak
memory does not grow with the truncation, and the high modes, live at few
times, take few blocks (a 1201-time trace at M = 500 takes 3). Two paths
share the walk, chosen from the input alone.

Fold and FFT. When the positions of an outer table (positions x times)
are J >= BLOCK points q_j/P of one uniform lattice, cos(2*m*pi*q_j/P)
depends on m only through m mod P. The terms k_m*T_m(v) of the modes
congruent mod P are summed into one row of a (P x times) fold table, and
the real part of its rfft, read at bin min(r_j, P - r_j), r_j = q_j mod P,
is the sum at every position: O(M*N + N*P*log P) work and no
(modes x positions) table. The lattice has P = 2*round(1/h) for the mean
spacing h, at most 4*J, and every position must lie within
np.spacing(HALF_WIDTH) of its q/P; cell centers of nu cells have P = 2*nu,
Grid1D.uniform_grid(n) has P = 2*(n - 1), a half-slab linspace of n points
P = 4*(n - 1). Field tables, FD-comparison slices and the acceptance
gate's slices take this path; every index is an integer, so no phase is
rounded. Each fold row receives its modes highest first, however the
modes are blocked.

Per sample. Everything else is evaluated per sample, each block's time
factors contracted with its cosine rows over the mode axis (one matrix
product when u and v form an outer table). The cosines cos(2*m*pi*u) of a
block are built by angle addition from cos/sin(2*pi*m0*u) of the block's
first mode and a shared table of cos/sin(2*pi*j*u).

Telegraph contraction. The direct formula of an underdamped telegraph mode
pays a cos and a sin per mode and sample, so on a long time row these
modes are instead contracted over the modes before time is expanded, at
the N times where their shared decay is not 0. The N times are cut into
blocks of S = max(BLOCK, isqrt(N)) samples; each time is its block's
smallest time (the anchor a) plus an offset. The distinct offsets of a
uniform row are S multiples of the step and their rounding variants, a few
ulps of the time apart, so offsets merge into groups: an offset joins the
group before it unless it lies more than tau = MERGE_PHASE/R past the
group's smallest member, its representative d, and keeps the residual
e = offset - d, exact, with 0 <= e <= tau. R is the top frequency omega or
1/(2*eps), the larger. A uniform trace of 1201 times has 36 anchors and 34
representatives (76 anchors and 105 distinct offsets in blocks of 16
without merging). Each mode's factor at v = a + d, divided by the shared
decay, is cos(omega*a)*P(d) + sin(omega*a)*Q(d), with
P = cos(omega*d) + r*sin(omega*d), Q = r*cos(omega*d) - sin(omega*d) and
r = 1/(2*eps*omega). With k_m*cos(2*m*pi*u) folded into the anchor side,
one matrix product per block of modes, G[d, (a, j)] += sum_m
B[m, d]*A[m, (a, j)], replaces the (modes x times) table. When some
residual is not 0 the closed-form derivatives omega*Q and -omega*P are
appended to B, so the same product also gives dG/dd, and each sample reads
G + e*dG at its anchor and representative. The neglected second-order term
of each mode is at most (R*tau)^2 = MERGE_PHASE^2 = 1e-16 of |k_m|. Rows
whose residuals are all 0 (no offsets merge: dyadic steps, repeated
patterns) form no derivative columns. The contraction is taken when the
anchors Q and representatives D number at most half the N times and
J*Q*W <= BLOCK*N, W = D, or 2*D with derivative columns, for J positions,
where a table of fewer than BLOCK positions counts as one: a 1201-time
table of up to 15 positions qualifies. A block of modes holds
max(BLOCK, BLOCK*N/(Q*J + W)) modes, so peak memory does not grow with the
truncation. Rows of few times, rows whose offsets do not repeat, rows
holding a non-finite time and (u, v) pairs take the per-sample path, as do
the overdamped and critical telegraph modes.

The time factors are the same code on every path, and on every path the
two-timescale family at eps = 0 is the parabolic evaluation, bit for bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import HALF_WIDTH, Grid1D, TimeGrid, slab_positions
from .errors import DomainError, InvalidParameterError, ResonantModeError
from .profiles import SpectralCoefficients

#: Discriminant tolerance below which a mode is treated as critically damped;
#: the overdamped formula divides by mu2 - mu1 which vanishes there.
CRITICAL_DISC_TOL = 1e-12

#: |1 - eps*(2*m*pi)^2| below this is a resonant two-timescale mode.
RESONANCE_TOL = 1e-9

#: The fewest modes per block of the series walk, and times per block of
#: the anchor/offset split of a long time row. It bounds the (modes x points)
#: temporaries, so peak memory does not grow with the truncation.
BLOCK = 16

#: In-block offsets within MERGE_PHASE/R of their group's first, R the
#: fastest rate of the contracted modes, share one offset-table column; the
#: first-order correction in the residual e <= MERGE_PHASE/R leaves out at
#: most MERGE_PHASE**2 of each mode's weight.
MERGE_PHASE = 1e-8

#: Decay factors exp(x) with x <= EXP_FLOOR (below 3.3e-308, at the edge of
#: the subnormal range that starts at x = -708.4) are taken as 0.
EXP_FLOOR = -708.0

SPECTRAL_MODELS = ("parabolic", "hyperbolic", "wkb")

# glibc's malloc hands the free memory at the top of its heap back to the
# system once it exceeds a trim threshold: 128 KiB at start, raised to twice
# the largest block freed from mmap. A series call frees its block
# temporaries, 0.4-0.9 MB for a 1201-time trace and about 10 times that for
# 12001 times, so under a lower threshold every call faults them in again
# (100-1600 minor faults, 15-60% of the call). Freeing one 4 MiB block here
# lifts the threshold to 8 MiB; with another allocator it is one allocation.
np.empty(1 << 19)


def _check_v(v):
    v_arr = np.asarray(v, dtype=float)
    if np.any(v_arr < 0):
        raise DomainError(f"v must be >= 0, got {v!r}")
    return v_arr


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
    """A time row cut into blocks, each time written as anchor + offset + residual.

    anchors (B,) holds the smallest time of each block. The distinct
    in-block offsets v - anchor are merged into groups no wider than the
    merge tolerance; offsets holds each group's smallest member, its
    representative, inv (B, S) the group of every sample and residual
    (B, S) the sample's offset minus its representative, so that
    anchor + (representative + residual) is the time, bit for bit. The row
    is padded to whole blocks with its last time.
    """

    anchors: np.ndarray
    offsets: np.ndarray
    inv: np.ndarray
    residual: np.ndarray


def _split_times(v, positions: int = 1, tau: float = 0.0):
    """The anchor/offset split of the time row v, or None.

    The N times are cut into blocks of S = max(BLOCK, isqrt(N)), which
    about minimizes the anchors plus the distinct offsets of a uniform row.

    Offsets merge from the smallest, 0, up: an offset joins the group before
    it unless it lies more than tau past that group's first member, which
    is the group's representative. Every group but the first, {0, ...},
    starts above tau, so a representative is at least half of each member
    and member - representative is exact.

    None, for the direct formula, unless the anchors Q and the
    representatives D number at most half the N samples and the contracted
    table of positions * Q * D values, twice that when some residual is not
    0, is no larger than BLOCK * N. A row of fewer than BLOCK times never
    qualifies, and a non-finite time takes the direct formula so that it
    stays in its own sample.
    """
    n = v.size
    if n < BLOCK or not np.all(np.isfinite(v)):
        return None
    span = max(BLOCK, math.isqrt(n))
    blocks = np.pad(v, (0, -n % span), mode="edge").reshape(-1, span)
    # The smallest time of a block is its anchor, so that no offset is
    # negative and no decay factor exp(-rate*d) exceeds 1.
    anchors = blocks.min(axis=1)
    sample = blocks - anchors[:, None]
    distinct, inv = np.unique(sample, return_inverse=True)
    # Start a group at each gap wider than tau, then, while some group is
    # wider than tau, at its first member more than tau past the group's
    # first: for rounding variants of a few nominal offsets one pass.
    first = np.diff(distinct, prepend=-np.inf) > tau
    while True:
        group = np.cumsum(first) - 1
        far = distinct - distinct[first][group] > tau
        if not far.any():
            break
        first |= far & ~np.r_[False, far[:-1]]
    offsets, inv = distinct[first], group[inv].reshape(blocks.shape)
    residual = sample - offsets[inv]
    width = offsets.size * (2 if residual.any() else 1)
    if len(blocks) + offsets.size > n / 2 or positions * len(blocks) * width > BLOCK * n:
        return None
    return _TimeSplit(anchors, offsets, inv, residual)


def _fastest_rate(eps: float, terms: int) -> float:
    """The largest rate R an offset table of telegraph modes up to `terms` sees.

    The top frequency omega and 1/(2*eps), since r*sin(omega*d) with
    r = 1/(2*eps*omega) grows at that rate near the critical modes.
    """
    return max(float(_frequency(eps, _discriminant(eps, terms))[0]), 0.5 / eps)


def _discriminant(eps: float, m):
    """1 - (4*m*pi)^2*eps: > 0 overdamped, < 0 underdamped telegraph mode m."""
    return 1.0 - (4.0 * np.pi * m) ** 2 * eps


def _frequency(eps: float, disc):
    """Angular frequency omega of underdamped modes, and r = 1/(2*eps*omega)."""
    omega = np.sqrt(-disc) / (2.0 * eps)
    return omega, 1.0 / (2.0 * eps * omega)


def _slow_rate(model: str, eps: float, m: int) -> float:
    """The slowest decay rate of the time factors of the modes m and up.

    (2*m*pi)^2 for the parabolic family and the slow part of the
    two-timescale family; for the telegraph family 1/(2*eps), the shared
    decay of the underdamped and critical modes, or, for an overdamped
    mode m, its slow rate (4*m*pi)^2/(2*(1 + sqrt(disc))), which rises with
    m to 1/(2*eps) at the critical mode.
    """
    if model != "hyperbolic":
        return (2.0 * math.pi * m) ** 2
    disc = _discriminant(eps, m)
    if disc > CRITICAL_DISC_TOL:
        # The product form of (1 - sqrt(disc))/(2*eps), which cancels to 0
        # for small eps.
        return (4.0 * math.pi * m) ** 2 / (2.0 * (1.0 + math.sqrt(disc)))
    return 0.5 / eps


def _telegraph_factor(eps: float, m, v, decay):
    """V_m(v)/k_m of the telegraph modes in column m at the times in v.

    m has shape (R, 1); v and decay = exp(-v/(2*eps)) are one row (1, N),
    shared by every mode. The damping class of each mode follows from the
    sign of 1 - (4*m*pi)^2*eps: overdamped (two real decay exponents
    mu2 < mu1 < 0), critical, or underdamped (decay 1/(2*eps), angular
    frequency omega).
    """
    disc = _discriminant(eps, m)
    out = np.empty((len(m), v.shape[1]))
    over = disc[:, 0] > CRITICAL_DISC_TOL
    under = disc[:, 0] < -CRITICAL_DISC_TOL
    crit = ~(over | under)
    if over.any():
        sq = np.sqrt(disc[over])
        # 1 - sq cancels for small eps; the rate is formed from the
        # equivalent product form instead.
        mu1 = -((4.0 * np.pi * m[over]) ** 2) / (2.0 * (1.0 + sq))
        mu2 = -(1.0 + sq) / (2.0 * eps)
        out[over] = (mu2 * _exp(mu1 * v) - mu1 * _exp(mu2 * v)) / (mu2 - mu1)
    if under.any():
        omega, r = _frequency(eps, disc[under])
        phase = omega * v
        # decay*(cos(phase) + r*sin(phase)), formed in place.
        wave = np.sin(phase)
        wave *= r
        wave += np.cos(phase, out=phase)
        wave *= decay
        out[under] = wave
    if crit.any():
        out[crit] = decay * (1.0 + v / (2.0 * eps))
    return out


def _mode_cosines(u, rows: int):
    """A function of (first, count) giving cos(2*pi*m*u), (count, J), m = first..first+count-1.

    count <= rows. Built by angle addition from cos/sin(2*pi*first*u) and a
    table of cos/sin(2*pi*j*u), j < rows.
    """
    angle = (2.0 * np.pi * np.arange(rows, dtype=float))[:, None] * u
    cos_j, sin_j = np.cos(angle), np.sin(angle)

    def block(first: int, count: int):
        base = (2.0 * math.pi * first) * u
        return np.cos(base) * cos_j[:count] - np.sin(base) * sin_j[:count]

    return block


def _contracted(coefficients, eps: float, split: _TimeSplit, lo: int, u):
    """sum_m k_m V_m(v)/exp(-v/(2*eps)) cos(2*m*pi*u) over the underdamped modes lo..M.

    Returned as (B*S, J) rows over the split's padded row. With v = a + d + e
    (anchor a, representative offset d, residual e),
    cos(omega*v) + r*sin(omega*v) = cos(omega*a)*P(d + e) + sin(omega*a)*Q(d + e),
    P = cos(omega*d) + r*sin(omega*d), Q = r*cos(omega*d) - sin(omega*d), and
    to first order P(d + e) = P(d) + e*omega*Q(d), Q(d + e) = Q(d) - e*omega*P(d).
    The anchor side, times k_m*cos(2*m*pi*u), is contracted with the offset
    tables and, when some e is not 0, their derivatives over the modes of a
    block, G[d, q, j] += sum_m A[m, q, j] * B[m, d], and each sample reads G
    at its own representative plus e times the derivative rows: no
    (modes x times) table is formed.
    """
    a, d = split.anchors[None, :], split.offsets[None, :]
    slope = bool(split.residual.any())
    g = np.zeros(((1 + slope) * d.size, a.size, u.size))
    # A block's anchor-side table is no larger than a direct block.
    rows = max(BLOCK, BLOCK * split.inv.size // (a.size * u.size + len(g)))
    cosines = _mode_cosines(u, rows)
    k = coefficients.modes
    for stop in range(coefficients.truncation, lo - 1, -rows):
        start = max(lo, stop - rows + 1)
        m = np.arange(start, stop + 1, dtype=float)[:, None]
        kb = k[start - 1 : stop, None]
        omega, r = _frequency(eps, _discriminant(eps, m))
        cos_d, sin_d = np.cos(omega * d), np.sin(omega * d)
        p_d, q_d = cos_d + r * sin_d, r * cos_d - sin_d
        b = np.concatenate((p_d, q_d))
        if slope:
            b = np.concatenate((b, np.concatenate((omega * q_d, -omega * p_d))), axis=1)
        anchor = np.stack((kb * np.cos(omega * a), kb * np.sin(omega * a)))
        table = (anchor[..., None] * cosines(start, len(m))[:, None, :]).reshape(-1, g[0].size)
        g += (b.T @ table).reshape(g.shape)
    q = np.arange(a.size)[:, None]
    values = g[split.inv, q]
    if slope:
        values += split.residual[..., None] * g[d.size + split.inv, q]
    return values.reshape(-1, u.size)


def _lattice(u):
    """(P, index) when the positions are points q/P of one uniform lattice, else None.

    P = 2*round(1/h) for the mean spacing h of the J >= BLOCK positions
    must not exceed 4*J, and every position must lie within
    np.spacing(HALF_WIDTH) of its q/P. Cell centers of nu cells have
    P = 2*nu, Grid1D.uniform_grid(n) has P = 2*(n - 1). index holds
    min(r, P - r), r = q mod P, the rfft bin of each position.
    """
    if u.size < BLOCK:
        return None
    span = float(u.max() - u.min())
    cells = (u.size - 1) / span if span > 0 else math.inf
    if not cells <= 2 * u.size + 1:  # also inf and NaN, which round() refuses
        return None
    period = 2 * round(cells)
    if period > 4 * u.size:
        return None
    q = np.rint(u * period)
    if np.any(np.abs(u - q / period) > np.spacing(HALF_WIDTH)):
        return None
    r = np.mod(q, period).astype(np.intp)
    return period, np.minimum(r, period - r)


def _series(model: str, coefficients: SpectralCoefficients, eps: float, u, v):
    """k0 + sum_m k_m T_m(v) cos(2*m*pi*u) for one family; u and v broadcast.

    T_m is the family's time factor. An outer table (u of shape (1, Nu), v
    of shape (Nv, 1)) or a scalar u or v is summed by one real FFT on a
    lattice of positions, else by matrix products, with the underdamped
    telegraph modes of a long time row contracted over the modes; any other
    broadcast is evaluated point by point.
    """
    terms = coefficients.truncation
    if model == "hyperbolic":
        check_telegraph_eps(eps)
    elif model == "wkb":
        check_wkb_eps(eps, terms)
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

    # The time factor shared by every mode: exp(-v/(2*eps)) for the telegraph
    # family, exp(-v/eps) for the two-timescale family. -v/eps overflows to
    # -inf at a huge time or a subnormal eps; exp(-inf) = 0 is the limit.
    if model == "hyperbolic" or two_scale:
        with np.errstate(over="ignore"):
            shared = _exp((-1.0 / (2.0 * eps)) * v_flat if model == "hyperbolic" else -v_flat / eps)

    k = coefficients.modes

    def live(first: int):
        """Where exp(-rate*v), rate the slowest of the modes first and up, is not flushed.

        NaN times stay live, so that NaN stays in its own sample.
        """
        return ~(v_flat >= -EXP_FLOOR / _slow_rate(model, eps, first))

    def walk(low: int, last: int, size: int, add):
        """Hand the blocks of modes low..last, highest first, to add(first, index, t, row).

        A block is evaluated only at the live times v[index] of its first
        mode: t holds k_m T_m(v) there, (count, times), and row is None. At
        the other times a two-timescale mode still adds fast_m*exp(-v/eps):
        t then holds the fast weights, (count, 1), and row exp(-v/eps) at
        those times. A block holds max(BLOCK, min(32*BLOCK, size/L)) modes,
        L the live times of its first mode, so its terms never exceed
        max(BLOCK*L, size) values and peak memory does not grow with the
        truncation, while the high modes, live at few times, take few blocks.

        Formed in place where it can: each block-sized temporary is fresh
        memory from the allocator, and its page faults cost as much as the
        arithmetic on a long time row.
        """
        blocks = []
        while low <= last:
            count = max(BLOCK, min(32 * BLOCK, size // max(1, np.count_nonzero(live(low)))))
            blocks.append((low, min(last, low + count - 1)))
            low += count
        for first, stop in reversed(blocks):
            m = np.arange(first, stop + 1, dtype=float)[:, None]
            kb = k[first - 1 : stop, None]
            mask = live(first)
            index = slice(None) if mask.all() else np.flatnonzero(mask)
            if two_scale:
                fast = _wkb_fast(eps, m, kb)
                dead = np.flatnonzero(~mask & (shared != 0))
                if dead.size:
                    add(first, dead, fast, shared[dead])
            v_row = v_flat[None, index]
            if not v_row.size:
                continue
            if model == "hyperbolic":
                t = _telegraph_factor(eps, m, v_row, shared[None, index])
            else:
                t = _exp(-((2.0 * np.pi * m) ** 2) * v_row)
            if two_scale:
                # k_m*e_s - fast_m*(e_s - e_f) is k_m exactly at v = 0.
                gap = t - shared[None, index]
                gap *= fast
                t *= kb
                t -= gap
            else:
                t *= kb
            add(first, index, t, None)

    # The telegraph modes under..M are underdamped and share the decay
    # exp(-v/(2*eps)). The discriminant falls with m, so the other modes are
    # the lowest ones; they decay more slowly and are walked apart, so that
    # no underdamped mode is evaluated where the shared decay is 0.
    under = 1
    if model == "hyperbolic":
        # Found in O(1): mode 1/(4*pi*sqrt(eps)) - 1 and those below it are
        # overdamped.
        under = min(terms + 1, max(1, math.floor(0.25 / (math.pi * math.sqrt(eps))) - 1))
        while under <= terms and _discriminant(eps, under) >= -CRITICAL_DISC_TOL:
            under += 1
    walks = [(under, terms), (1, under - 1)]

    lattice = _lattice(u_flat) if outer else None
    if lattice is not None:
        # cos(2*m*pi*q/P) depends on m only through m mod P: the terms of the
        # modes congruent mod P are summed into one row of a (P x times)
        # fold table, and the real part of its rfft over P is the sum at
        # every lattice position, read at bin min(r, P - r), r = q mod P.
        period, bins = lattice
        fold = np.zeros((period, v_flat.size))

        def fold_in(first: int, index, t, row):
            # The modes low..top between two multiples of P fill contiguous rows.
            top = first + len(t) - 1
            while top >= first:
                low = max(first, top - top % period)
                part = t[low - first : top - first + 1]
                fold[low % period : top % period + 1, index] += part if row is None else part * row
                top = low - 1

        for low, last in walks:
            walk(low, last, BLOCK * period, fold_in)
        total = np.fft.rfft(fold, axis=0).real[bins].T
        return _scalarize((coefficients.mean + total).reshape(shape), u, v)

    total = np.zeros((v_flat.size, u_flat.size) if outer else u_flat.size)
    # The underdamped telegraph modes of a long time row are contracted over
    # the anchor/offset split of the times where their shared decay is not
    # 0; all other modes are evaluated per sample. The direct telegraph
    # formula pays a cos and a sin per mode and sample, so tables of fewer
    # than BLOCK positions are split as if they had one.
    if outer and model == "hyperbolic" and under <= terms:
        times = np.flatnonzero(shared)
        positions = 1 if u_flat.size < BLOCK else u_flat.size
        split = _split_times(v_flat[times], positions, MERGE_PHASE / _fastest_rate(eps, terms))
        if split is not None:
            values = _contracted(coefficients, eps, split, under, u_flat)[: times.size]
            total[times] += values * shared[times, None]
            del walks[0]
    # A block's cosines, (count, positions), are no larger than its terms;
    # the table holds as many rows as the largest block.
    size = BLOCK * v_flat.size // u_flat.size
    modes = sum(last - low + 1 for low, last in walks)
    cosines = _mode_cosines(u_flat, max(BLOCK, min(32 * BLOCK, size, modes)))

    def contract(first: int, index, t, row):
        c = cosines(first, len(t))
        s = t.T @ c if outer else np.einsum("jn,jn->n", t, c[:, index])
        total[index] += s if row is None else (row[:, None] if outer else row) * s

    for low, last in walks:
        walk(low, last, size, contract)
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

def _wkb_fast(eps: float, m, k):
    """Fast weights -q_m/(1 - q_m)*k_m of the modes m with coefficients k."""
    q = _mode_ratios(eps, m)
    return -q / (1.0 - q) * k


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
